package keymgmt

import (
	"errors"
	"net/http/httptest"
	"testing"
)

// The whole-PKI fixture is expensive (RSA keygen); build once.
var fixture = func() struct {
	root    *CA
	studio  *CA
	creator *Identity
	author  *Identity
} {
	root, err := NewRootCA("DiscSec Root", ECDSAP256)
	if err != nil {
		panic(err)
	}
	studio, err := root.NewIntermediate("Studio CA", ECDSAP256)
	if err != nil {
		panic(err)
	}
	creator, err := studio.IssueIdentity("content-creator", ECDSAP256)
	if err != nil {
		panic(err)
	}
	author, err := root.IssueIdentity("app-author", ECDSAP256)
	if err != nil {
		panic(err)
	}
	// Creator's chain must include the intermediate for verification.
	creator.Chain = [][]byte{creator.Cert.Raw, studio.Cert.Raw}
	return struct {
		root    *CA
		studio  *CA
		creator *Identity
		author  *Identity
	}{root, studio, creator, author}
}()

func TestChainValidation(t *testing.T) {
	roots := fixture.root.Pool()

	// Leaf under intermediate: needs the intermediate supplied.
	if _, err := VerifyChain(fixture.creator.Cert, roots, fixture.studio.Cert); err != nil {
		t.Errorf("creator chain: %v", err)
	}
	if _, err := VerifyChain(fixture.creator.Cert, roots); err == nil {
		t.Error("creator chain validated without intermediate")
	}
	// Leaf directly under root.
	if _, err := VerifyChain(fixture.author.Cert, roots); err != nil {
		t.Errorf("author chain: %v", err)
	}
	// Against an unrelated root: fail.
	other, err := NewRootCA("Other Root", ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyChain(fixture.author.Cert, other.Pool()); err == nil {
		t.Error("chain validated against unrelated root")
	}
	if _, err := VerifyChain(fixture.author.Cert, nil); err == nil {
		t.Error("nil roots accepted")
	}
}

func TestServiceLifecycle(t *testing.T) {
	s := NewService(fixture.root.Pool())

	if err := s.Register("author", fixture.author.Cert, "secret"); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := s.Register("author", fixture.author.Cert, "x"); !errors.Is(err, ErrAlreadyRegistered) {
		t.Errorf("duplicate register err = %v", err)
	}

	kb, err := s.Locate("author")
	if err != nil {
		t.Fatalf("locate: %v", err)
	}
	if !kb.Certificate.Equal(fixture.author.Cert) {
		t.Error("located wrong certificate")
	}
	if _, err := s.Locate("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("locate ghost err = %v", err)
	}

	status, err := s.Validate("author")
	if err != nil || status != StatusValid {
		t.Errorf("validate = %v, %v", status, err)
	}

	// Wrong authenticator cannot revoke.
	if err := s.Revoke("author", "wrong"); !errors.Is(err, ErrBadAuthenticator) {
		t.Errorf("revoke wrong auth err = %v", err)
	}
	if err := s.Revoke("author", "secret"); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	if status, err := s.Validate("author"); status != StatusInvalid || !errors.Is(err, ErrRevoked) {
		t.Errorf("validate revoked = %v, %v", status, err)
	}

	// Reissue restores validity with a fresh certificate.
	if err := s.Reissue("author", fixture.author.Cert, "secret"); err != nil {
		t.Fatalf("reissue: %v", err)
	}
	if status, _ := s.Validate("author"); status != StatusValid {
		t.Errorf("validate after reissue = %v", status)
	}
}

func TestServiceValidateUntrustedChain(t *testing.T) {
	// Service trusts a different root than the one that issued the cert.
	other, err := NewRootCA("Other Root", ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	s := NewService(other.Pool())
	if err := s.Register("author", fixture.author.Cert, "a"); err != nil {
		t.Fatal(err)
	}
	status, err := s.Validate("author")
	if status != StatusInvalid || err == nil {
		t.Errorf("validate = %v, %v; want Invalid", status, err)
	}
}

// TestValidateRechecksChainAfterReissue: a remembered chain validation
// belongs to the certificate it validated, so reissuing the binding to
// a certificate from an untrusted root is refused at once.
func TestValidateRechecksChainAfterReissue(t *testing.T) {
	s := NewService(fixture.root.Pool())
	if err := s.Register("author", fixture.author.Cert, "secret"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if status, err := s.Validate("author"); status != StatusValid {
			t.Fatalf("validate %d = %v, %v", i, status, err)
		}
	}
	other, err := NewRootCA("Other Root", ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	stranger, err := other.IssueIdentity("stranger", ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reissue("author", stranger.Cert, "secret"); err != nil {
		t.Fatal(err)
	}
	if status, err := s.Validate("author"); status != StatusInvalid || err == nil {
		t.Errorf("validate after reissue to an untrusted certificate = %v, %v; want Invalid", status, err)
	}
}

func TestXKMSHTTPRoundTrip(t *testing.T) {
	s := NewService(fixture.root.Pool())
	srv := httptest.NewServer(&Handler{Service: s})
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}

	if err := c.Register("creator", fixture.creator.Cert, "pw"); err != nil {
		t.Fatalf("register: %v", err)
	}

	kb, err := c.Locate("creator")
	if err != nil {
		t.Fatalf("locate: %v", err)
	}
	if kb.Name != "creator" || kb.Revoked {
		t.Errorf("binding = %+v", kb)
	}
	if !kb.Certificate.Equal(fixture.creator.Cert) {
		t.Error("certificate mismatch over the wire")
	}

	// Validate: chain needs the intermediate, which the service does
	// not have, so status is Invalid — exactly the trust semantics we
	// want exposed.
	status, reason, err := c.Validate("creator")
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if status != StatusInvalid || reason == "" {
		t.Errorf("validate = %v %q", status, reason)
	}

	// Author validates cleanly (issued directly under the root).
	if err := c.Register("author", fixture.author.Cert, "pw2"); err != nil {
		t.Fatal(err)
	}
	status, _, err = c.Validate("author")
	if err != nil || status != StatusValid {
		t.Errorf("author validate = %v, %v", status, err)
	}

	// Revoke over the wire.
	if err := c.Revoke("author", "bad"); err == nil {
		t.Error("revoke with wrong authenticator succeeded")
	}
	if err := c.Revoke("author", "pw2"); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	kb, err = c.Locate("author")
	if err != nil {
		t.Fatal(err)
	}
	if !kb.Revoked {
		t.Error("binding not marked revoked after Revoke")
	}

	// Reissue over the wire.
	if err := c.Reissue("author", fixture.author.Cert, "pw2"); err != nil {
		t.Fatalf("reissue: %v", err)
	}
	status, _, _ = c.Validate("author")
	if status != StatusValid {
		t.Errorf("status after reissue = %v", status)
	}

	// Unknown name surfaces as an error result.
	if _, err := c.Locate("ghost"); err == nil {
		t.Error("locate ghost succeeded")
	}
}

func TestHandlerRejectsBadInput(t *testing.T) {
	s := NewService(nil)
	h := &Handler{Service: s}
	if _, err := h.handle([]byte("not xml")); err == nil {
		t.Error("malformed XML accepted")
	}
	if _, err := h.handle([]byte("<Unknown/>")); err == nil {
		t.Error("unknown request type accepted")
	}
}

func TestIssueCertificateKeyUsage(t *testing.T) {
	if fixture.author.Cert.KeyUsage&0 != 0 {
		t.Error("unexpected")
	}
	if !fixture.root.Cert.IsCA {
		t.Error("root is not a CA")
	}
	if !fixture.studio.Cert.IsCA {
		t.Error("intermediate is not a CA")
	}
	if fixture.creator.Cert.IsCA {
		t.Error("leaf is a CA")
	}
}

func TestServiceValidateWithIntermediate(t *testing.T) {
	s := NewService(fixture.root.Pool())
	if err := s.Register("creator", fixture.creator.Cert, "a"); err != nil {
		t.Fatal(err)
	}
	// Without the intermediate the chain cannot be built.
	if status, _ := s.Validate("creator"); status != StatusInvalid {
		t.Errorf("status without intermediate = %v", status)
	}
	s.AddIntermediate(fixture.studio.Cert)
	status, err := s.Validate("creator")
	if err != nil || status != StatusValid {
		t.Errorf("status with intermediate = %v, %v", status, err)
	}
	s.AddIntermediate(nil) // no-op
}

func TestPublicKeyByNameInProcess(t *testing.T) {
	s := NewService(fixture.root.Pool())
	if err := s.Register("author", fixture.author.Cert, "a"); err != nil {
		t.Fatal(err)
	}
	pub, err := s.PublicKeyByName("author")
	if err != nil {
		t.Fatal(err)
	}
	if pub == nil {
		t.Fatal("nil key")
	}
	if _, err := s.PublicKeyByName("ghost"); err == nil {
		t.Error("unknown name resolved")
	}
	if err := s.Revoke("author", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PublicKeyByName("author"); err == nil {
		t.Error("revoked binding resolved")
	}
}

func TestPublicKeyByNameOverHTTP(t *testing.T) {
	s := NewService(fixture.root.Pool())
	if err := s.Register("author", fixture.author.Cert, "a"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(&Handler{Service: s})
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	pub, err := c.PublicKeyByName("author")
	if err != nil || pub == nil {
		t.Fatalf("resolve = %v, %v", pub, err)
	}
	if _, err := c.PublicKeyByName("ghost"); err == nil {
		t.Error("unknown name resolved over HTTP")
	}
}

func TestServiceNames(t *testing.T) {
	s := NewService(nil)
	s.Register("a", fixture.author.Cert, "x")
	s.Register("b", fixture.author.Cert, "x")
	if n := len(s.Names()); n != 2 {
		t.Errorf("names = %d", n)
	}
}

func TestIssueServerCertificateSANs(t *testing.T) {
	cert, err := fixture.root.IssueServerCertificate("srv.example", []string{"127.0.0.1", "srv.example"}, ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	leaf := cert.Leaf
	if len(leaf.IPAddresses) != 1 || len(leaf.DNSNames) != 1 {
		t.Errorf("SANs = %v / %v", leaf.IPAddresses, leaf.DNSNames)
	}
	if err := leaf.VerifyHostname("srv.example"); err != nil {
		t.Errorf("hostname verify: %v", err)
	}
	if len(cert.Certificate) != 2 {
		t.Errorf("chain length = %d", len(cert.Certificate))
	}
}
