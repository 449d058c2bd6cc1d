//go:build go1.23

package rt

import (
	"fmt"
	"iter"
)

// This file holds the thread coroutine protocol. Its build constraint
// raises only this file's language version to go1.23, which iter needs;
// the module stays at go 1.22.

// start makes t's body a coroutine: next (T.resume) runs the thread
// until its next request, yield (T.call) parks it, and stop (T.kill)
// unwinds a parked or never-started thread. The switch is the
// runtime's direct coroutine handoff, so no Go scheduler is involved.
func (t *T) start() {
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		t.run()
	})
}

// killedSentinel unwinds a thread coroutine during engine teardown.
type killedSentinel struct{}

// run is the coroutine body: execute the thread body and leave its
// completion (or panic) in t.req as the final request.
func (t *T) run() {
	returned := false
	defer func() {
		r := recover()
		if r == nil && !returned {
			// runtime.Goexit in the body (t.FailNow in a test, say). It
			// cannot be stopped, and the coroutine would re-raise it on the
			// engine's goroutine, so report it as a panic from here and
			// stay parked mid-unwind until kill.
			t.goexited = true
			t.req = request{kind: reqPanic, err: fmt.Errorf("thread %v called runtime.Goexit", t.id)}
			t.yield(struct{}{})
			return
		}
		if _, killed := r.(killedSentinel); r != nil && !killed {
			t.req = request{kind: reqPanic, err: r}
		}
	}()
	t.body(t)
	// The final flush is itself a scheduling point, so a teardown kill
	// can land inside it; the deferred recover swallows that.
	t.flush()
	returned = true
	t.req = request{kind: reqExit}
}

// call hands the prepared request to the engine and parks until
// resumed.
func (t *T) call() {
	if !t.yield(struct{}{}) {
		// Teardown: unwind this coroutine; recovered by run.
		panic(killedSentinel{})
	}
}

// resume runs the parked thread until its next request. Called only by
// the engine.
func (t *T) resume() *request {
	t.next()
	return &t.req
}

// kill unwinds a parked (or not-yet-started) thread. Called only by the
// engine during teardown.
func (t *T) kill() {
	if t.goexited {
		// Finishing a Goexit unwind re-raises Goexit in stop's caller,
		// so let a goroutine of its own take it.
		t.goexited = false
		done := make(chan struct{})
		go func() {
			defer close(done)
			t.stop()
		}()
		<-done
		return
	}
	t.stop()
}
