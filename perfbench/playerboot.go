package main

import (
	"context"
	"crypto/x509"
	"fmt"
	"time"

	"discsec/internal/access"
	"discsec/internal/core"
	"discsec/internal/disc"
	"discsec/internal/experiments"
	"discsec/internal/obs"
	"discsec/internal/player"
	"discsec/internal/workload"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlsecuri"
)

// player-boot: a player's cold start from image bytes. Each op decodes
// a disc image, builds a fresh engine with no library, loads (decrypt,
// verify, chain, decode) and runs the application. After each boot the
// player re-runs the application on the loaded session: the hit class
// of this workload, served from verified state with no verification.
const (
	bootImages   = 16
	bootAppTrack = "t-app-1"
	bootAppID    = "app-1"
	// bootWarmups boots every image this many times before timing.
	bootWarmups = 2
)

// bootImage is one authored disc and what running its application must
// report.
type bootImage struct {
	raw     []byte
	granted []access.Permission
	events  int
	doc     []byte // the signed, encrypted index document
	script  string
}

type playerBoot struct {
	roots  *x509.CertPool
	policy *access.PDP
	encKey []byte
	images []*bootImage
	rng    uint64
	rec    *obs.Recorder
	pk     *pki
}

// bootSpec is the paper's reference application shape: three A/V
// clips and one application with two scripts and a high-score state.
func bootSpec(seed uint64) workload.ClusterSpec {
	return workload.ClusterSpec{
		AVTracks:  3,
		AppTracks: 1,
		Manifest: workload.ManifestSpec{
			Regions:          4,
			MediaItems:       8,
			Scripts:          2,
			ScriptStatements: 60,
			HighScoreEntries: 16,
		},
		ClipDurationMS:  200,
		ClipBitrateKbps: 8000,
		Seed:            seed,
	}
}

// authorImage packages one disc: cluster-level signature, encrypted
// //manifest/code, signed clips, and a permission request.
func authorImage(p *pki, encKey []byte, seed uint64) (*bootImage, error) {
	creator, err := p.issue("Bench Studio")
	if err != nil {
		return nil, err
	}
	spec := bootSpec(seed)
	cluster, clips := workload.Cluster(spec)
	req := experiments.GamePermissions(bootAppID)
	prot := &core.Protector{Identity: creator.id}
	im, err := prot.Package(core.PackageSpec{
		Cluster:            cluster,
		Clips:              clips,
		PermissionRequests: map[string]*access.PermissionRequest{bootAppID: req},
		Sign:               true,
		SignLevel:          core.LevelCluster,
		EncryptPaths:       []string{"//manifest/code"},
		Encryption:         xmlenc.EncryptOptions{Algorithm: xmlsecuri.EncAES128CBC, Key: encKey},
		SignClips:          true,
	})
	if err != nil {
		return nil, err
	}
	index, err := im.ReadIndexDocumentBytes()
	if err != nil {
		return nil, err
	}
	m := cluster.FindTrack(bootAppTrack).Manifest
	return &bootImage{
		raw:     im.Bytes(),
		granted: req.Permissions,
		events:  spec.Manifest.MediaItems,
		doc:     index,
		script:  m.Code.Scripts[0].Source,
	}, nil
}

func setupPlayerBoot(seed uint64, traced bool, _ time.Duration) (system, error) {
	rng := newRNG(seed, 0)
	p, err := newPKI()
	if err != nil {
		return nil, err
	}
	b := &playerBoot{
		roots:  p.root.Pool(),
		policy: experiments.PlatformPolicy(),
		encKey: workloadKey(rng),
		rng:    rng.Uint64(),
		pk:     p,
	}
	if traced {
		b.rec = obs.NewRecorder()
	}
	seeds := make([]uint64, bootImages)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	b.images = make([]*bootImage, bootImages)
	if err := parallel(bootImages, func(i int) error {
		im, err := authorImage(p, b.encKey, seeds[i])
		if err != nil {
			return fmt.Errorf("image %d: %w", i, err)
		}
		b.images[i] = im
		return nil
	}); err != nil {
		return nil, err
	}
	// Warm-up: boot every image, checking every output.
	c := newClient(false, time.Now())
	for w := 0; w < bootWarmups; w++ {
		for _, im := range b.images {
			if err := b.iteration(c, im); err != nil {
				return nil, err
			}
		}
	}
	if c.ops.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed", c.ops.failed, c.ops.attempted)
	}
	return b, nil
}

func (b *playerBoot) engine() *player.Engine {
	opts := []player.Option{
		player.WithTrustPool(b.roots),
		player.WithPolicy(b.policy),
		player.WithStorage(disc.NewLocalStorage(0)),
		player.WithDecryptKeys(xmlenc.DecryptOptions{Key: b.encKey}),
		player.WithRequireSignature(true),
	}
	if b.rec != nil {
		opts = append(opts, player.WithRecorder(b.rec))
	}
	return player.NewEngine(opts...)
}

// iteration boots one image (a primary op, miss class) and re-runs its
// application on the loaded session (hit class). A system error is
// counted; a wrong report aborts.
func (b *playerBoot) iteration(c *client, im *bootImage) error {
	start := time.Now()
	c.tr.begin(rootOp)
	sess, rep, err := b.boot(c.tr, im)
	c.tr.end()
	c.attempts[classMiss].record(err == nil)
	c.done(classMiss, true, start, err)
	if err != nil {
		return nil
	}
	if err := im.check(rep); err != nil {
		return err
	}

	start = time.Now()
	c.tr.begin(rootResume)
	c.tr.begin(spanRun)
	rep, err = sess.RunApplication(bootAppTrack)
	c.tr.end()
	c.tr.end()
	c.attempts[classHit].record(err == nil)
	c.done(classHit, false, start, err)
	if err != nil {
		return nil
	}
	return im.check(rep)
}

func (b *playerBoot) boot(tr *tracer, im *bootImage) (*player.Session, *player.ExecutionReport, error) {
	tr.begin(spanReadImage)
	image, err := disc.ReadImageBytes(im.raw)
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	e := b.engine()
	tr.begin(spanLoad)
	sess, err := e.Load(context.Background(), image)
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	tr.begin(spanRun)
	rep, err := sess.RunApplication(bootAppTrack)
	tr.end()
	return sess, rep, err
}

// check compares a report with what the authored disc must produce:
// no script errors, every requested permission granted, one
// presentation event per media item.
func (im *bootImage) check(rep *player.ExecutionReport) error {
	if len(rep.ScriptErrors) > 0 {
		return wrong("player-boot: script errors %v", rep.ScriptErrors)
	}
	if len(rep.Denied) > 0 || len(rep.Granted) != len(im.granted) {
		return wrong("player-boot: granted %v, denied %v, want %v", rep.Granted, rep.Denied, im.granted)
	}
	for i, p := range rep.Granted {
		if p != im.granted[i] {
			return wrong("player-boot: granted %v, want %v", rep.Granted, im.granted)
		}
	}
	if len(rep.Events) != im.events {
		return wrong("player-boot: %d presentation events, want %d", len(rep.Events), im.events)
	}
	return nil
}

func (b *playerBoot) run(deadline time.Time, traced bool) (*phase, error) {
	start := time.Now()
	c := newClient(traced, start)
	rng := newRNG(b.rng, 1)
	for time.Now().Before(deadline) {
		speed.enter()
		err := b.iteration(c, b.images[rng.IntN(len(b.images))])
		speed.leave()
		if err != nil {
			return nil, err
		}
	}
	return mergeClients(start, []*client{c}), nil
}

func (b *playerBoot) setRecording(on bool)         { b.rec.SetEnabled(on) }
func (b *playerBoot) counters() map[string]float64 { return nil }
func (b *playerBoot) close()                       {}

func (b *playerBoot) corpus() *replayCorpus {
	im := b.images[0]
	return &replayCorpus{
		index:  im.doc,
		script: im.script,
		encKey: b.encKey,
		roots:  b.roots,
		policy: b.policy,
		pk:     b.pk,
		seed:   b.rng,
	}
}
