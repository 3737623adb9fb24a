package keymgmt

import (
	"crypto"
	"crypto/x509"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// BindingStatus is the XKMS key binding status reported by Validate.
type BindingStatus string

// Key binding statuses per XKMS.
const (
	StatusValid         BindingStatus = "Valid"
	StatusInvalid       BindingStatus = "Invalid"
	StatusIndeterminate BindingStatus = "Indeterminate"
)

// Service errors.
var (
	// ErrNotFound indicates no binding is registered under the name.
	ErrNotFound = errors.New("keymgmt: key binding not found")
	// ErrAlreadyRegistered indicates a Register collision.
	ErrAlreadyRegistered = errors.New("keymgmt: key name already registered")
	// ErrRevoked indicates the binding has been revoked.
	ErrRevoked = errors.New("keymgmt: key binding revoked")
	// ErrBadAuthenticator indicates a revocation/reissue request failed
	// proof of possession.
	ErrBadAuthenticator = errors.New("keymgmt: authenticator mismatch")
)

// KeyBinding associates a name with a certificate, mirroring the XKMS
// KeyBinding structure.
type KeyBinding struct {
	Name        string
	Certificate *x509.Certificate
	Revoked     bool
}

// Service is the trust server of the paper's §7: it accepts key
// registrations and answers locate/validate queries for players. The
// zero value is not usable; construct with NewService.
type Service struct {
	roots *x509.CertPool

	// epoch counts trust-changing events (Revoke, Reissue) since the
	// service started. It only moves forward; distributed verdict
	// caches stamp entries with it so a replica can tell whether a
	// verdict predates the latest trust change.
	epoch atomic.Uint64

	mu            sync.RWMutex
	bindings      map[string]*binding
	intermediates []*x509.Certificate
	onRevoke      []func(name string)
}

type binding struct {
	cert          *x509.Certificate
	revoked       bool
	authenticator string
	// chainUntil memoizes a successful chain validation of cert: before
	// that instant (the validated chain's earliest NotAfter) the chain
	// is not verified again. Reissue replaces cert and clears it.
	chainUntil time.Time
}

// NewService creates a key service trusting the given roots for
// validation decisions.
func NewService(roots *x509.CertPool) *Service {
	return &Service{roots: roots, bindings: make(map[string]*binding)}
}

// Register binds name to a certificate. The authenticator is a shared
// secret the registrant must present to revoke or replace the binding
// (standing in for the XKMS proof-of-possession exchange).
func (s *Service) Register(name string, cert *x509.Certificate, authenticator string) error {
	if name == "" || cert == nil {
		return errors.New("keymgmt: Register requires a name and certificate")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.bindings[name]; ok && !b.revoked {
		return fmt.Errorf("%w: %q", ErrAlreadyRegistered, name)
	}
	s.bindings[name] = &binding{cert: cert, authenticator: authenticator}
	return nil
}

// Locate returns the binding registered under name, revoked or not
// (XKMS Locate is a dumb directory lookup; trust decisions belong to
// Validate).
func (s *Service) Locate(name string) (*KeyBinding, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.bindings[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return &KeyBinding{Name: name, Certificate: b.cert, Revoked: b.revoked}, nil
}

// Validate reports the trust status of the named binding: Valid when
// registered, unrevoked, and chain-valid to the service roots.
// Revocation is checked on every call; a successful chain validation
// is remembered until the chain's first certificate expires, since the
// roots are fixed and intermediates are only ever added.
func (s *Service) Validate(name string) (BindingStatus, error) {
	s.mu.RLock()
	b, ok := s.bindings[name]
	var cert *x509.Certificate
	var revoked bool
	var until time.Time
	if ok {
		cert, revoked, until = b.cert, b.revoked, b.chainUntil
	}
	s.mu.RUnlock()
	if !ok {
		return StatusIndeterminate, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if revoked {
		return StatusInvalid, fmt.Errorf("%w: %q", ErrRevoked, name)
	}
	if s.roots == nil || time.Now().Before(until) {
		return StatusValid, nil
	}
	s.mu.RLock()
	inter := append([]*x509.Certificate(nil), s.intermediates...)
	s.mu.RUnlock()
	chains, err := VerifyChain(cert, s.roots, inter...)
	if err != nil {
		return StatusInvalid, fmt.Errorf("keymgmt: chain validation for %q: %w", name, err)
	}
	until = cert.NotAfter
	for _, c := range chains[0] {
		if c.NotAfter.Before(until) {
			until = c.NotAfter
		}
	}
	s.mu.Lock()
	if b.cert == cert {
		b.chainUntil = until
	}
	s.mu.Unlock()
	return StatusValid, nil
}

// AddIntermediate registers a chain-building certificate the service
// uses when validating bindings issued under subordinate authorities.
func (s *Service) AddIntermediate(cert *x509.Certificate) {
	if cert == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.intermediates = append(s.intermediates, cert)
}

// OnRevoke registers a hook fired (synchronously, outside the service
// lock) after every successful Revoke or Reissue with the affected
// binding name. Verification caches use it to flush every verdict that
// depends on the signer before the next lookup can observe the old key.
func (s *Service) OnRevoke(fn func(name string)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onRevoke = append(s.onRevoke, fn)
}

// fireRevoke snapshots the hook list under the read lock and invokes
// each hook unlocked, so hooks may call back into the service. The
// trust epoch advances before any hook runs: a hook that reads
// Epoch() must see the post-revocation value.
func (s *Service) fireRevoke(name string) {
	s.epoch.Add(1)
	s.mu.RLock()
	hooks := append([]func(string){}, s.onRevoke...)
	s.mu.RUnlock()
	for _, fn := range hooks {
		fn(name)
	}
}

// Epoch reports the monotonic count of trust-changing events (Revoke,
// Reissue) the service has processed. A verdict cache stamped with an
// older epoch may predate a revocation and must re-verify.
func (s *Service) Epoch() uint64 { return s.epoch.Load() }

// Revoke marks the binding invalid. The authenticator must match the one
// presented at registration.
func (s *Service) Revoke(name, authenticator string) error {
	if err := s.revoke(name, authenticator); err != nil {
		return err
	}
	s.fireRevoke(name)
	return nil
}

func (s *Service) revoke(name, authenticator string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bindings[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if b.authenticator != authenticator {
		return ErrBadAuthenticator
	}
	b.revoked = true
	return nil
}

// Reissue replaces the certificate under an existing binding (key
// rollover), authenticated like Revoke. OnRevoke hooks fire because the
// old key must stop vouching for cached verdicts immediately.
func (s *Service) Reissue(name string, cert *x509.Certificate, authenticator string) error {
	if err := s.reissue(name, cert, authenticator); err != nil {
		return err
	}
	s.fireRevoke(name)
	return nil
}

func (s *Service) reissue(name string, cert *x509.Certificate, authenticator string) error {
	if cert == nil {
		return errors.New("keymgmt: Reissue requires a certificate")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bindings[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if b.authenticator != authenticator {
		return ErrBadAuthenticator
	}
	b.cert = cert
	b.revoked = false
	b.chainUntil = time.Time{}
	return nil
}

// PublicKeyByName resolves a KeyName hint to a public key for signature
// verification, refusing revoked and chain-invalid bindings. It adapts
// the service to the verifier's KeyByName hook, realizing the paper's
// §7 "trust server" role in the verification path.
func (s *Service) PublicKeyByName(name string) (crypto.PublicKey, error) {
	if _, err := s.Validate(name); err != nil {
		return nil, err
	}
	kb, err := s.Locate(name)
	if err != nil {
		return nil, err
	}
	return kb.Certificate.PublicKey, nil
}

// Names returns the registered binding names (diagnostics and tests).
func (s *Service) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.bindings))
	for n := range s.bindings {
		out = append(out, n)
	}
	return out
}
