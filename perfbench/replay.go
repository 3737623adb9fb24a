package main

import (
	"bytes"
	"crypto/x509"
	"fmt"
	"runtime"
	"time"

	"discsec/internal/access"
	"discsec/internal/experiments"
	"discsec/internal/keymgmt"
	"discsec/internal/markup"
	"discsec/internal/xmldom"
	"discsec/internal/xmldsig"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlstream"
)

// replayCorpus is what the replay pass pushes through each primitive:
// the workload's own ~2 KiB and ~64 KiB signed documents and player
// material (index document with encrypted code, a script, the signer's
// certificate chain and a permission request).
type replayCorpus struct {
	small, big *doc
	signer     *signer
	seed       uint64
	index      []byte
	script     string
	encKey     []byte
	roots      *x509.CertPool
	policy     *access.PDP
	pk         *pki
}

// replayTime is how long each primitive is repeated; the reported
// value is the mean over every repetition in that time.
const replayTime = 150 * time.Millisecond

// measure repeats fn for replayTime (at least three times) and returns
// the mean time and heap allocations per call.
func measure(fn func() error) (time.Duration, float64, error) {
	if err := fn(); err != nil { // warm-up, and a correctness gate
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < replayTime {
		if err := fn(); err != nil {
			return 0, 0, err
		}
		n++
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	return el / time.Duration(n), float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// nullHandler consumes tokens so xmlstream.Parse can run alone.
type nullHandler struct{}

func (nullHandler) StartElement(string, string, []xmlstream.Attr) error { return nil }
func (nullHandler) EndElement(string, string) error                     { return nil }
func (nullHandler) Text([]byte) error                                   { return nil }
func (nullHandler) Comment([]byte) error                                { return nil }
func (nullHandler) ProcInst(string, []byte) error                       { return nil }

// replay times each primitive alone on the corpus and adds ns/byte or
// µs per call, each with allocs per call.
func replay(res *result, rc *replayCorpus) error {
	if err := rc.complete(); err != nil {
		return err
	}
	perByte := func(name string, d *doc, fn func(raw []byte) error) error {
		t, allocs, err := measure(func() error { return fn(d.raw) })
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res.add(name+"_ns_per_byte", float64(t.Nanoseconds())/float64(len(d.raw)), "ns/B")
		res.add(name+"_allocs", allocs, "count")
		return nil
	}
	perCall := func(name string, fn func() error) error {
		t, allocs, err := measure(fn)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res.add(name+"_us", float64(t.Nanoseconds())/1e3, "us")
		res.add(name+"_allocs", allocs, "count")
		return nil
	}

	for _, sz := range []struct {
		tag string
		d   *doc
	}{{"2k", rc.small}, {"64k", rc.big}} {
		d := sz.d
		if err := perByte("xmlstream.parse_"+sz.tag, d, func(raw []byte) error {
			return xmlstream.Parse(bytes.NewReader(raw), xmlstream.Options{}, nullHandler{})
		}); err != nil {
			return err
		}
		if err := perByte("xmldsig.digest_"+sz.tag, d, func(raw []byte) error {
			key, err := cacheKey(raw)
			if err == nil && key != d.key {
				err = wrong("digest %.12s, want %.12s", key, d.key)
			}
			return err
		}); err != nil {
			return err
		}
		if err := perByte("xmldom.parse_"+sz.tag, d, func(raw []byte) error {
			_, err := xmldom.ParseBytes(raw)
			return err
		}); err != nil {
			return err
		}
		parsed, err := xmldom.ParseBytes(d.raw)
		if err != nil {
			return err
		}
		pub := d.by.id.Key.Public()
		if err := perCall("xmldsig.verify_"+sz.tag, func() error {
			_, err := xmldsig.VerifyDocument(parsed, xmldsig.VerifyOptions{Key: pub})
			return err
		}); err != nil {
			return err
		}
	}

	if err := perCall("markup.parse_script", func() error {
		_, err := markup.ParseScript(rc.script)
		return err
	}); err != nil {
		return err
	}
	leaf := rc.signer.id.Cert
	if err := perCall("keymgmt.verify_chain", func() error {
		_, err := keymgmt.VerifyChain(leaf, rc.roots)
		return err
	}); err != nil {
		return err
	}
	index, err := xmldom.ParseBytes(rc.index)
	if err != nil {
		return err
	}
	eds := xmlenc.FindEncryptedData(index)
	if len(eds) == 0 {
		return fmt.Errorf("index document carries no EncryptedData")
	}
	if err := perCall("xmlenc.decrypt", func() error {
		_, err := xmlenc.DecryptOctets(eds[0], xmlenc.DecryptOptions{Key: rc.encKey})
		return err
	}); err != nil {
		return err
	}
	req := experiments.GamePermissions(bootAppID)
	subject := map[string]string{"verified": "true", "signer": rc.signer.id.Name}
	return perCall("access.evaluate", func() error {
		g, err := rc.policy.EvaluateRequest(req, subject, nil)
		if err == nil && len(g.Granted()) != len(req.Permissions) {
			err = wrong("granted %v, want %v", g.Granted(), req.Permissions)
		}
		return err
	})
}

// complete fills in whatever the workload does not carry itself from
// the same generators: player-boot has no 64 KiB documents, the
// document workloads have no disc.
func (rc *replayCorpus) complete() error {
	rng := newRNG(rc.seed, 9)
	if rc.signer == nil {
		s, err := rc.pk.register("Replay Signer")
		if err != nil {
			return err
		}
		rc.signer = s
	}
	for _, slot := range []struct {
		d   **doc
		big bool
	}{{&rc.small, false}, {&rc.big, true}} {
		if *slot.d != nil {
			continue
		}
		d, err := makeDoc(rc.signer, slot.big, rng.Uint64())
		if err != nil {
			return err
		}
		*slot.d = d
	}
	if rc.index == nil {
		rc.encKey = workloadKey(rng)
		im, err := authorImage(rc.pk, rc.encKey, rng.Uint64())
		if err != nil {
			return err
		}
		rc.index, rc.script = im.doc, im.script
	}
	if rc.roots == nil {
		rc.roots = rc.pk.root.Pool()
	}
	if rc.policy == nil {
		rc.policy = experiments.PlatformPolicy()
	}
	return nil
}
