package main

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	mrand "math/rand/v2"
	"slices"
	"sync"
	"time"
)

// The machines this benchmark is meant for are small shared virtual
// machines whose speed drifts. On the 2-vCPU Xeon guest the bounds were
// set on, one player-boot build measured median op_p50_ms 2.41 ms and
// 1.92 ms in two sets of runs 25 minutes apart, and a fixed SHA-256
// loop ran 10-13 % slower from one half-minute to the next. A
// wall-clock figure then measures the host as much as the code.
//
// The speed gauge measures the machine beside the system. A fixed
// reference kernel, built only from the standard library and the
// benchmark's own code (so no change to the repository changes its
// cost), is timed in short shots throughout the process: before every
// set-up and every gaugeEvery during an untraced timed phase, with
// every client held out between two ops so that a shot never shares
// the CPUs with an op. The kernel's nominal time over the median shot
// is the machine's speed relative to the reference, and every
// end-to-end time metric is reported at the reference speed: a latency
// or set-up time is multiplied by it, a rate divided by it. A change to
// the code moves the system's times and not the kernel's, so it shows
// in full. The measured values are printed beside the result.
const (
	// gaugeEvery is the time between two shots in a timed phase.
	gaugeEvery = 50 * time.Millisecond
	// gaugeSetupShots is how many shots precede each set-up.
	gaugeSetupShots = 10
	// gaugeNominal is the reference kernel's time at the reference
	// speed, about its median on the 2-vCPU Xeon guest.
	gaugeNominal = 600 * time.Microsecond
)

// gauge times the reference kernel. Clients hold gate for reading
// across each op (enter/leave); a shot holds it for writing, so it
// waits for the ops in flight and keeps new ones out until it ends.
type gauge struct {
	gate  sync.RWMutex
	mu    sync.Mutex
	shots []time.Duration
	// held is the total time shots kept clients out, which a timed
	// phase subtracts from its elapsed time.
	held time.Duration
}

// speed is the process's gauge. Every workload's clients pass through
// its gate.
var speed gauge

func (g *gauge) enter() { g.gate.RLock() }
func (g *gauge) leave() { g.gate.RUnlock() }

// shoot runs the kernel once with every client held out.
func (g *gauge) shoot() {
	g.gate.Lock()
	start := time.Now()
	refKernel.run()
	d := time.Since(start)
	g.gate.Unlock()
	g.mu.Lock()
	g.shots = append(g.shots, d)
	g.held += d
	g.mu.Unlock()
}

// during shoots every gaugeEvery until the returned func is called;
// that func waits for the shooter to end and returns how long shots
// held the clients out.
func (g *gauge) during() func() time.Duration {
	g.mu.Lock()
	held0 := g.held
	g.mu.Unlock()
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(gaugeEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				g.shoot()
			}
		}
	}()
	return func() time.Duration {
		stop()
		<-done
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.held - held0
	}
}

// factor is the machine's speed relative to the reference: the
// kernel's nominal time over its median shot.
func (g *gauge) factor() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	shots := make([]float64, len(g.shots))
	for i, s := range g.shots {
		shots[i] = s.Seconds()
	}
	return gaugeNominal.Seconds() / median(shots)
}

func (g *gauge) String() string {
	g.mu.Lock()
	n := len(g.shots)
	g.mu.Unlock()
	return fmt.Sprintf("%d shots of the reference kernel, speed %.4f of the reference", n, g.factor())
}

// kernel is the reference work: ECDSA P-256 verification, sorting, map
// inserts and an XML-like byte scan, the kinds of work the workloads
// spend their time on. Its inputs are fixed at start-up. It allocates
// only ECDSA's few temporaries, so it does not pay for the system's
// garbage collection. (A kernel built on encoding/xml, which
// allocates, tracked player-boot well but slowed with edge-fleet's
// larger heap while that workload held steady.)
type kernel struct {
	pub      *ecdsa.PublicKey
	digest   [32]byte
	sig      []byte
	unsorted []uint64
	scratch  []uint64
	m        map[uint64]uint64
	xml      []byte
	sink     uint32
}

var refKernel = newKernel()

func newKernel() *kernel {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		panic(err)
	}
	k := &kernel{pub: &priv.PublicKey, m: make(map[uint64]uint64, 2048)}
	k.digest = sha256.Sum256([]byte("perfbench reference kernel"))
	if k.sig, err = ecdsa.SignASN1(rand.Reader, priv, k.digest[:]); err != nil {
		panic(err)
	}
	rng := mrand.New(mrand.NewPCG(1, 2))
	k.unsorted = make([]uint64, 2048)
	for i := range k.unsorted {
		k.unsorted[i] = rng.Uint64()
	}
	k.scratch = make([]uint64, len(k.unsorted))
	var b bytes.Buffer
	b.WriteString("<scores>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, `<entry rank="%d" player="p%x">%d points</entry>`, i, rng.Uint32(), rng.IntN(1e6))
	}
	b.WriteString("</scores>")
	k.xml = b.Bytes()
	return k
}

func (k *kernel) run() {
	if !ecdsa.VerifyASN1(k.pub, k.digest[:], k.sig) {
		panic("reference kernel: signature does not verify")
	}
	copy(k.scratch, k.unsorted)
	slices.Sort(k.scratch)
	clear(k.m)
	for i, v := range k.unsorted {
		k.m[v] = uint64(i)
	}
	if tags := k.scan(); tags != 4*(2+2*200) {
		panic(fmt.Sprintf("reference kernel: scanned %d tags", tags))
	}
}

// scan walks the XML bytes four times with a small tag/attribute
// state machine, hashing names and values: branchy byte-at-a-time
// work like a tokenizer's.
func (k *kernel) scan() int {
	tags, h := 0, k.sink
	const (
		text = iota
		tag
		value
	)
	state := text
	for r := 0; r < 4; r++ {
		for _, c := range k.xml {
			switch state {
			case text:
				if c == '<' {
					state = tag
					tags++
				}
			case tag:
				switch c {
				case '"':
					state = value
				case '>':
					state = text
				default:
					h = h*16777619 ^ uint32(c)
				}
			case value:
				if c == '"' {
					state = tag
				} else {
					h = h*31 + uint32(c)
				}
			}
		}
	}
	k.sink = h
	return tags
}
