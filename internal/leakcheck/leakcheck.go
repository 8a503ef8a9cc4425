// Package leakcheck asserts that tests leave no goroutines behind: chaos
// and resilience tests drive panics, cancellations and fast-fail bursts
// through the pipeline, and every one of those paths must release its
// goroutines. The helper snapshots the goroutine count at test start and
// fails the test if the count has not returned to the snapshot (with a
// grace period for connection teardown) by cleanup time.
package leakcheck

import (
	"fmt"
	"net/http"
	"runtime"
	"time"
)

// TB is the part of testing.TB that Check uses; *testing.T, *testing.B and
// *testing.F satisfy it. Taking an interface keeps package testing out of
// the production binaries that import this package for its stack parsing.
type TB interface {
	Helper()
	Cleanup(func())
	Error(args ...any)
}

// Check snapshots the current goroutine count and registers a cleanup that
// fails the test if more goroutines are still running after the grace
// period. Call it first in a test so its cleanup runs last (after server
// and client shutdown registered later). Not compatible with t.Parallel:
// sibling tests' goroutines would pollute the count.
func Check(t TB) {
	t.Helper()
	start := runtime.NumGoroutine()
	t.Cleanup(func() {
		if err := Settle(start, 5*time.Second); err != nil {
			t.Error(err)
		}
	})
}

// Settle waits up to grace for the goroutine count to return to start and
// returns an error (with parsed stacks) if it never does. It is the
// non-testing half of Check, usable from tools like cmd/capcheck that need
// leak detection outside a *testing.T.
func Settle(start int, grace time.Duration) error {
	deadline := time.Now().Add(grace)
	var n int
	for {
		// Idle HTTP keep-alive connections park client goroutines; drop
		// them before each count — a connection may become idle only
		// after the previous sweep.
		http.DefaultClient.CloseIdleConnections()
		n = runtime.NumGoroutine()
		if n <= start {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return fmt.Errorf("leakcheck: %d goroutines at settle, %d at start (%s); stacks:\n%s",
		n, start, summarize(ParseStacks(buf)), buf)
}
