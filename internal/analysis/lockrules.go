package analysis

// Declarative tables and the locksafety rule for the concurrency
// analyzers (locksafety, lockorder, goroutineleak), mirroring
// taintrules.go: the engines (locksets.go) are generic, the project
// knowledge lives here. The locksafety analyzer itself is small enough
// to live beside its tables — v1 shipped it standalone, PR 6 folded
// its held-lock tracking onto the shared lockset engine, and the
// leftover shim file is gone; the rule name and messages are
// unchanged, so existing //discvet:ignore locksafety directives and
// baselines stay valid.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockSafety reports two lock-handling bugs that deadlock or corrupt
// the caches on the hot serving path:
//
//   - a function parameter or receiver whose (non-pointer) type
//     contains a sync.Mutex/RWMutex, i.e. a lock copied by value, and
//   - a return statement executed while a mutex is still held by a
//     Lock/RLock that was not paired with a deferred unlock.
//
// Function literals are walked as independent roots with their own
// (empty) held set.
var LockSafety = &Analyzer{
	Name:      "locksafety",
	Doc:       "no lock-by-value copies; no return while a defer-less Lock is held",
	RunModule: runLockSafety,
}

func runLockSafety(pass *ModulePass) {
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					checkLockCopies(pass, pkg, fd)
				}
			}
		}
	}

	eng := newLockEngine(pass)
	w := &lockWalker{eng: eng}
	w.onReturn = func(held []*heldLock, pos token.Pos) {
		for _, hl := range held {
			pass.Reportf(pos,
				"return while %s is locked (Lock at %s has no deferred unlock)",
				hl.key, pass.Fset.Position(hl.pos))
		}
	}
	w.walkModule()
}

// checkLockCopies flags by-value receivers and parameters whose type
// contains a mutex.
func checkLockCopies(pass *ModulePass, pkg *Package, fd *ast.FuncDecl) {
	var fields []*ast.Field
	if fd.Recv != nil {
		fields = append(fields, fd.Recv.List...)
	}
	if fd.Type.Params != nil {
		fields = append(fields, fd.Type.Params.List...)
	}
	for _, field := range fields {
		t := pkg.Info.Types[field.Type].Type
		if t == nil || !containsLock(t, map[types.Type]bool{}) {
			continue
		}
		pass.Reportf(field.Pos(),
			"%s passed by value copies its sync.Mutex; pass a pointer", types.TypeString(t, types.RelativeTo(pkg.Types)))
	}
}

// containsLock reports whether a value of type t embeds a
// sync.Mutex/RWMutex (directly, in a struct field, or in an array
// element). Pointers do not propagate: sharing a lock through a
// pointer is the correct pattern.
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
			(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

var pkgResilience = modulePath + "/internal/resilience"

// blockingSinks are calls that can wait indefinitely (or long enough
// to matter: network round trips, retry backoff). Holding a mutex
// across one stalls every other goroutine contending for that mutex —
// on the revocation path that turns fail-closed into fail-hung (see
// SECURITY.md). The same table tells goroutineleak which unanalyzable
// callees run until an external shutdown signal.
var blockingSinks = []FuncRef{
	// Indefinite synchronization waits.
	{Pkg: "sync", Recv: "WaitGroup", Name: "Wait"},
	{Pkg: "sync", Recv: "Cond", Name: "Wait"},
	// Network I/O: dials, listener accept loops, HTTP round trips.
	{Pkg: "net", Name: "Dial"},
	{Pkg: "net", Name: "DialTimeout"},
	{Pkg: "net", Name: "Listen"},
	{Pkg: "net", Recv: "Listener", Name: "Accept"},
	{Pkg: "net/http", Recv: "Client", Name: "Do"},
	{Pkg: "net/http", Recv: "Client", Name: "Get"},
	{Pkg: "net/http", Recv: "Client", Name: "Post"},
	{Pkg: "net/http", Recv: "Client", Name: "PostForm"},
	{Pkg: "net/http", Recv: "Server", Name: "Serve"},
	{Pkg: "net/http", Recv: "Server", Name: "ListenAndServe"},
	{Pkg: "net/http", Name: "ListenAndServe"},
	// Deliberate sleeps (retry backoff).
	{Pkg: "time", Name: "Sleep"},
	// Module-local waits: the library's singleflight blocks every
	// waiter until the fill completes, and a resilience policy sleeps
	// between attempts.
	{Pkg: pkgLibrary, Recv: "Flight", Name: "Do"},
	{Pkg: pkgResilience, Recv: "Policy", Name: "Do"},
}
