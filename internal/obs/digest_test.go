package obs

import (
	"math"
	"testing"

	"repro/internal/mem"
)

// digestEvents is a fixed two-CPU event sequence: eleven events, so a
// 4-slot ring on either CPU has overwritten its first ones.
func digestEvents() []Event {
	evs := make([]Event, 11)
	for i := range evs {
		evs[i] = Event{Time: uint64(10 * i), A: uint64(i), B: uint64(i * i),
			X: float64(i) / 3, Y: -math.Sqrt(float64(i)),
			Thread: 1, CPU: int16(i % 2), Kind: Kind(1 + i%8), Arg: uint8(i)}
	}
	return evs
}

func traceObserver(evs []Event) *Observer {
	o := New(2, Options{Level: Trace, RingSize: 4})
	o.Registry().Counter("engine.dispatches").Add(1, 9)
	for _, ev := range evs {
		o.Emit(ev)
	}
	return o
}

// TestStateDigestCoversEveryEventField: changing any one field of any
// one event changes the digest — including events the ring already
// overwrote, which the running hash still covers.
func TestStateDigestCoversEveryEventField(t *testing.T) {
	base := traceObserver(digestEvents())
	if base.Ring(0).Dropped() == 0 || base.Ring(1).Dropped() == 0 {
		t.Fatal("the fixture must overwrite events on both rings")
	}
	want := base.StateDigest()
	fields := []struct {
		name string
		mut  func(*Event)
	}{
		{"Time", func(e *Event) { e.Time++ }},
		{"A", func(e *Event) { e.A ^= 1 << 63 }},
		{"B", func(e *Event) { e.B++ }},
		{"X", func(e *Event) { e.X = math.Nextafter(e.X, 10) }},
		{"Y", func(e *Event) { e.Y-- }},
		{"Thread", func(e *Event) { e.Thread = mem.ThreadID(-1) }},
		{"Kind", func(e *Event) { e.Kind++ }},
		{"Arg", func(e *Event) { e.Arg ^= 0x80 }},
	}
	for i := range digestEvents() {
		for _, f := range fields {
			evs := digestEvents()
			f.mut(&evs[i])
			if got := traceObserver(evs).StateDigest(); got == want {
				t.Errorf("event %d field %s changed, digest unchanged (%#x)", i, f.name, got)
			}
		}
		// CPU is the ring index too: move the event to the other CPU.
		evs := digestEvents()
		evs[i].CPU ^= 1
		if got := traceObserver(evs).StateDigest(); got == want {
			t.Errorf("event %d moved to CPU %d, digest unchanged", i, evs[i].CPU)
		}
	}
	// Swapping two events of one CPU keeps the multiset but not the
	// order; the fold is order-sensitive.
	evs := digestEvents()
	evs[0], evs[2] = evs[2], evs[0]
	if traceObserver(evs).StateDigest() == want {
		t.Error("reordering two events left the digest unchanged")
	}
}

// TestStateDigestCoversTotal: equal running hashes with different event
// counts digest differently.
func TestStateDigestCoversTotal(t *testing.T) {
	a, b := traceObserver(digestEvents()), traceObserver(digestEvents())
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("equal runs digest differently")
	}
	b.rings[1].head++
	if a.StateDigest() == b.StateDigest() {
		t.Error("Total() changed, digest unchanged")
	}
}

// TestMetricsDigestPinned: a Metrics-level observer has no rings, and
// its digest is the value the pre-fold digest gave for this sequence.
func TestMetricsDigestPinned(t *testing.T) {
	o := New(3, Options{Level: Metrics})
	r := o.Registry()
	c := r.Counter("engine.dispatches")
	c.Add(0, 7)
	c.Inc(2)
	r.Counter("alpha").Add(1, 1<<40)
	r.Gauge("model.s_max").Set(3.25)
	r.Gauge("neg").Set(-0.5)
	h := r.Histogram("dispatch.wait", []float64{10, 100, 1000})
	for i, v := range []float64{3, 47, 47, 999, 5000, 0.5} {
		h.Observe(i%3, v)
	}
	const want = 0x781b3d111fb70bd8
	if got := o.StateDigest(); got != want {
		t.Errorf("metrics-level digest %#x, want %#x", got, want)
	}
	if got := o.WindowDigest(); got != want {
		t.Errorf("metrics-level window digest %#x, want %#x", got, want)
	}
	if got := (*Observer)(nil).StateDigest(); got != 0 {
		t.Errorf("nil observer digest %#x, want 0", got)
	}
}

// TestWindowDigestPinned: WindowDigest is the digest checkpoints stored
// before the running hash, pinned on a trace-level sequence.
func TestWindowDigestPinned(t *testing.T) {
	o := traceObserver(digestEvents())
	const want = 0x674c336e1bfbb6c
	if got := o.WindowDigest(); got != want {
		t.Errorf("window digest %#x, want %#x", got, want)
	}
	if o.StateDigest() == want {
		t.Error("trace-level StateDigest equals the window digest")
	}
}

// BenchmarkStateDigest measures a digest of two full 16k-event rings.
func BenchmarkStateDigest(b *testing.B) {
	o := New(2, Options{Level: Trace})
	for i := 0; i < 2*DefaultRingSize; i++ {
		o.Emit(Event{Time: uint64(i), CPU: int16(i % 2), Kind: KDispatch})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.StateDigest()
	}
}
