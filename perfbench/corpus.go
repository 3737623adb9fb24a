package main

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"discsec/internal/c14n"
	"discsec/internal/core"
	"discsec/internal/keymgmt"
	"discsec/internal/workload"
	"discsec/internal/xmldsig"
	"discsec/internal/xmlsecuri"
)

// signerPassword authenticates Register and Revoke calls on the trust
// service; every signer the benchmark registers uses it.
const signerPassword = "bench-pw"

// Size classes of the catalog documents: most are small application
// clusters, a seeded minority (bigEvery) are large ones.
const (
	smallTarget = 2 << 10
	bigTarget   = 64 << 10
	bigEvery    = 16
)

// doc is one signed cluster document plus the outputs every open of it
// must reproduce.
type doc struct {
	raw []byte
	// key is the hex exclusive-C14N SHA-256 digest (the library cache
	// key), computed with xmldsig.DigestDocumentReader.
	key string
	// signer is the fingerprint of the signing key.
	signer string
	by     *signer
	big    bool
	// seed generated the document's content. Key material and
	// signature values come from crypto/rand, so only the content
	// repeats for a seed, not the bytes.
	seed uint64
}

// signer is a trust-service identity the benchmark signs with.
type signer struct {
	id *keymgmt.Identity
	fp string
}

// pki is one root CA and the trust service that vouches for signers
// issued under it.
type pki struct {
	root *keymgmt.CA
	svc  *keymgmt.Service
}

func newPKI() (*pki, error) {
	root, err := keymgmt.NewRootCA("Bench Root", keymgmt.ECDSAP256)
	if err != nil {
		return nil, err
	}
	return &pki{root: root, svc: keymgmt.NewService(root.Pool())}, nil
}

// issue creates a signer under the root without registering it.
func (p *pki) issue(name string) (*signer, error) {
	id, err := p.root.IssueIdentity(name, keymgmt.ECDSAP256)
	if err != nil {
		return nil, err
	}
	return &signer{id: id, fp: core.KeyFingerprint(id.Key.Public())}, nil
}

// register issues a signer and registers it with the trust service.
func (p *pki) register(name string) (*signer, error) {
	s, err := p.issue(name)
	if err != nil {
		return nil, err
	}
	return s, p.svc.Register(name, s.id.Cert, signerPassword)
}

// docSpec returns a cluster spec whose signed serialization is close to
// target bytes. Large documents carry a long high-score table, the
// paper's game-state submarkup.
func docSpec(target int, seed uint64) workload.ClusterSpec {
	ms := workload.ManifestSpec{Regions: 2, MediaItems: 2, Scripts: 1, ScriptStatements: 12}
	if target > smallTarget {
		ms.HighScoreEntries = (target - smallTarget) / 47
		ms.ScriptStatements = 40
	}
	return workload.ClusterSpec{AppTracks: 1, Manifest: ms, Seed: seed}
}

// makeDoc authors and KeyName-signs one cluster document, then derives
// the expected cache key from the serialized bytes alone.
func makeDoc(s *signer, big bool, seed uint64) (*doc, error) {
	target := smallTarget
	if big {
		target = bigTarget
	}
	cl, _ := workload.Cluster(docSpec(target, seed))
	d := cl.Document()
	if _, err := xmldsig.SignEnveloped(d, d.Root(), xmldsig.SignOptions{
		Key:     s.id.Key,
		KeyInfo: xmldsig.KeyInfoSpec{KeyName: s.id.Name},
	}); err != nil {
		return nil, err
	}
	raw := d.Bytes()
	key, err := cacheKey(raw)
	if err != nil {
		return nil, err
	}
	return &doc{raw: raw, key: key, signer: s.fp, by: s, big: big, seed: seed}, nil
}

// cacheKey is the exclusive-C14N SHA-256 digest of a document in hex:
// the key the verification library and the edges address verdicts by.
func cacheKey(raw []byte) (string, error) {
	sum, err := xmldsig.DigestDocumentReader(bytes.NewReader(raw), c14n.Options{Exclusive: true}, xmlsecuri.DigestSHA256)
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(sum), nil
}

// catalogSizes assigns size classes by popularity rank: one document in
// every block of bigEvery ranks is large. Block 0 always places it
// last so the most popular document is never large by chance; the
// other blocks place it at a seeded position. Every seed therefore
// sends about the same share of opens to large documents.
func catalogSizes(n int, rng *rand.Rand) []bool {
	big := make([]bool, n)
	for b := 0; b*bigEvery < n; b++ {
		pos := bigEvery - 1
		if b > 0 {
			pos = rng.IntN(bigEvery)
		}
		if i := b*bigEvery + pos; i < n {
			big[i] = true
		}
	}
	return big
}

// buildCatalog signs n documents, rank i by signers[i%len(signers)],
// with sizes from catalogSizes. Document seeds come from rng, so two
// seeds give different catalogs.
func buildCatalog(n int, signers []*signer, rng *rand.Rand) ([]*doc, error) {
	return buildDocs(catalogSizes(n, rng), signers, rng)
}

// buildDocs signs one document per entry of big (large where it is
// set), document i by signers[i%len(signers)], with seeds from rng.
func buildDocs(big []bool, signers []*signer, rng *rand.Rand) ([]*doc, error) {
	n := len(big)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	out := make([]*doc, n)
	err := parallel(n, func(i int) error {
		d, err := makeDoc(signers[i%len(signers)], big[i], seeds[i])
		if err != nil {
			return fmt.Errorf("catalog document %d: %w", i, err)
		}
		out[i] = d
		return nil
	})
	return out, err
}

// parallel runs fn for every index in [0, n) on GOMAXPROCS workers and
// returns the first errors. Authoring is most of set-up, and its
// inputs are drawn before the fan-out, so the result does not depend
// on scheduling.
func parallel(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1): Zipf with exponent 1, which math/rand's Zipf (s > 1)
// cannot express.
type zipf struct {
	cdf []float64
}

func newZipf(n int) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = math.Inf(1)
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// workloadKey draws a 128-bit content-encryption key.
func workloadKey(rng *rand.Rand) []byte {
	return workload.Bytes(16, rng.Uint64())
}

// newRNG derives an independent deterministic stream from the run
// seed: stream separates the catalog, each client's draws and the
// churn schedule.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}
