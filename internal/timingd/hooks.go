package timingd

import "fmt"

// FaultSite names an injection point on the server's write and cache
// paths. The sites are the seams where a resident daemon actually breaks
// in production: resolving and applying an edit batch, the moment before a
// commit publishes its epoch, the recovery after a writer panic, and the
// query cache on the read path.
type FaultSite string

const (
	// SiteCommitResolve fires before an op batch is resolved against the
	// session: at the top of Server.evaluate — the half of the writer
	// pipeline a commit and a what-if both run — and in a cluster prepare.
	SiteCommitResolve FaultSite = "commit.resolve"
	// SiteCommitApply fires in evaluate after resolution, before edits
	// touch the session's netlist; a what-if reaches it, holding the
	// session's write lock, and a cluster prepare does not.
	SiteCommitApply FaultSite = "commit.apply"
	// SiteCommitSwap fires after a commit's edits are applied and
	// re-timed, immediately before the new epoch is published. A what-if
	// rolls back instead and a cluster prepare applies nothing, so neither
	// reaches it.
	SiteCommitSwap FaultSite = "commit.swap"
	// SiteCommitRecover fires when a writer panic left edits live, before
	// they are undone and every analyzer is re-run. A failure here is the
	// one thing that degrades the server.
	SiteCommitRecover FaultSite = "commit.recover"
	// SiteCacheGet and SiteCachePut fire around the per-epoch query
	// cache. An error here must degrade to a fresh render, never to a
	// wrong or failed response.
	SiteCacheGet FaultSite = "cache.get"
	SiteCachePut FaultSite = "cache.put"
)

// Hooks is the fault-injection seam. Production servers leave Config.Hooks
// nil — every call site goes through Server.fire, which is nil-safe and
// free when unset. A test hook may return an error (the site fails
// cleanly), panic (the site crashes mid-flight), or sleep before returning
// nil (the site is slow). The server's contract under all three is pinned
// by the chaos tests.
type Hooks struct {
	// Fire is invoked with the site about to execute. A nil Fire is the
	// same as no hooks.
	Fire func(site FaultSite) error
}

// fire triggers the hook for a site, if any.
func (s *Server) fire(site FaultSite) error {
	h := s.cfg.Hooks
	if h == nil || h.Fire == nil {
		return nil
	}
	return h.Fire(site)
}

// panicError marks an error that was recovered from a panic, so callers
// can distinguish "the site failed" from "the site crashed" — the latter
// leaves the session's state unknown until it is recovered.
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("recovered panic: %v", e.val) }

func isRecoveredPanic(err error) bool {
	_, ok := err.(*panicError)
	return ok
}

// guard runs fn, converting a panic into an error so a crash inside the
// writer pipeline cannot take down the daemon or leak a held lock (fn must
// manage its locks with defer).
func guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r}
		}
	}()
	return fn()
}
