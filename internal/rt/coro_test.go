package rt

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/platform/sim"
)

// Every thread runs on a coroutine with a goroutine of its own; these
// tests pin that each way Run can end releases all of them, that a body
// calling runtime.Goexit fails the run instead of taking the engine's
// goroutine down with it, and what a thread costs in allocations.

// waitGoroutines polls until the goroutine count is back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunReleasesThreadCoroutines(t *testing.T) {
	cases := []struct {
		name  string
		setup func(e *Engine, cancel context.CancelFunc)
		// pre-cancels the context before Run.
		cancelFirst bool
		check       func(t *testing.T, err error)
	}{
		{
			name: "exit",
			setup: func(e *Engine, _ context.CancelFunc) {
				for i := 0; i < 8; i++ {
					e.Spawn(func(th *T) { th.Compute(10); th.Yield() }, SpawnOpts{})
				}
			},
			check: func(t *testing.T, err error) {
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
			},
		},
		{
			name: "deadlock",
			setup: func(e *Engine, _ context.CancelFunc) {
				sem := NewSemaphore("never", 0)
				for i := 0; i < 4; i++ {
					e.Spawn(func(th *T) { th.SemWait(sem) }, SpawnOpts{})
				}
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, ErrDeadlock) {
					t.Fatalf("err = %v, want ErrDeadlock", err)
				}
			},
		},
		{
			name: "panic",
			setup: func(e *Engine, _ context.CancelFunc) {
				sem := NewSemaphore("never", 0)
				for i := 0; i < 4; i++ {
					e.Spawn(func(th *T) { th.SemWait(sem) }, SpawnOpts{})
				}
				e.Spawn(func(th *T) { th.Yield(); panic("body-panic-7f3a") }, SpawnOpts{})
			},
			check: func(t *testing.T, err error) {
				if err == nil || !strings.Contains(err.Error(), "body-panic-7f3a") {
					t.Fatalf("err = %v, want the panic value", err)
				}
			},
		},
		{
			name: "cancel",
			setup: func(e *Engine, cancel context.CancelFunc) {
				e.Spawn(func(th *T) {
					for i := 0; i < 16; i++ {
						th.Create("w", func(c *T) {
							for {
								c.Yield()
							}
						})
					}
					th.Yield()
					cancel()
					th.Yield()
				}, SpawnOpts{})
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			},
		},
		{
			name: "never-dispatched",
			setup: func(e *Engine, _ context.CancelFunc) {
				for i := 0; i < 16; i++ {
					e.Spawn(func(th *T) { t.Error("a thread ran after cancellation") }, SpawnOpts{})
				}
			},
			cancelFirst: true,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := newEngine(t, 2, "LFF")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tc.setup(e, cancel)
			if tc.cancelFirst {
				cancel()
			}
			tc.check(t, e.Run(ctx))
			waitGoroutines(t, base)
		})
	}
}

// TestGoexitInBodyFailsRun: a thread body that calls runtime.Goexit (as
// t.FailNow does) makes Run return an error naming it, on a goroutine
// that survives to report it, and leaks no coroutine.
func TestGoexitInBodyFailsRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := newEngine(t, 2, "FCFS")
	sem := NewSemaphore("never", 0)
	e.Spawn(func(th *T) { th.SemWait(sem) }, SpawnOpts{Name: "parked"})
	e.Spawn(func(th *T) {
		th.Compute(10)
		runtime.Goexit()
	}, SpawnOpts{Name: "quitter"})
	done := make(chan error, 1)
	go func() {
		done <- e.Run(context.Background())
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "runtime.Goexit") {
			t.Fatalf("err = %v, want a runtime.Goexit failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run's goroutine never returned: Goexit escaped the thread")
	}
	waitGoroutines(t, base)
}

// threadAllocBudget pins the allocations one thread costs over its
// life (spawn, a yield, exit), measured as the difference between runs
// with 300 and with 100 threads so fixed engine costs cancel. The
// coroutine iter.Pull builds (its closures and shared state) costs
// more than the two channels the goroutine hand-off used to make:
// about 16.4 allocations per thread where the channels cost 7.6.
const threadAllocBudget = 17

func TestThreadAllocBudget(t *testing.T) {
	run := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			e, err := New(sim.New(machine.New(machine.Enterprise5000(2))), Options{Policy: "LFF", Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				e.Spawn(func(th *T) { th.Yield() }, SpawnOpts{})
			}
			if err := e.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
	n := (run(300) - run(100)) / 200
	t.Logf("%.2f allocations per thread", n)
	if n > threadAllocBudget {
		t.Errorf("a thread allocates %.2f times, budget %d", n, threadAllocBudget)
	}
}
