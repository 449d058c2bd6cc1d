// Package obs is the runtime's observability subsystem: a per-CPU
// ring-buffer event tracer keyed to the simulator's virtual clock, a
// typed metrics registry with per-CPU shards, and exporters (Chrome
// trace-event JSON for Perfetto, Prometheus text format, CSV timelines
// for internal/report).
//
// The package is always compiled in; observability is an *engine
// option*, not a build tag. The engine pays for a disabled observer
// with exactly one nil-check per emission site (Tracing/MetricsOn are
// nil-safe and inlinable), so the disabled path is indistinguishable
// from a build without observability. When enabled, every timestamp is
// a virtual cycle count — never wall time — so traces from the same
// seed are bit-identical run to run and across `-j` worker counts: the
// engine is a sequential discrete-event simulation and each experiment
// cell owns its observer, so nothing about host scheduling can leak
// into the recorded stream.
//
// Concurrency model: one Observer belongs to one engine and is written
// only by that engine's goroutine (rings and histogram shards are
// single-writer; counters and gauges use atomics so a debug HTTP
// handler may scrape mid-run). A Session aggregates the observers of
// many engines — the parallel experiment driver's cells — and exports
// them in sorted-key order, which is what keeps multi-cell trace bytes
// independent of worker count.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/mem"
)

// Level selects how much the observer records.
type Level uint8

const (
	// Off records nothing. A nil *Observer behaves as Off everywhere.
	Off Level = iota
	// Metrics maintains the metrics registry but records no events.
	Metrics
	// Trace maintains the registry and the per-CPU event rings.
	Trace
)

func (l Level) String() string {
	switch l {
	case Off:
		return "off"
	case Metrics:
		return "metrics"
	case Trace:
		return "trace"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// ParseLevel parses an -obs flag value.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off":
		return Off, nil
	case "metrics":
		return Metrics, nil
	case "trace":
		return Trace, nil
	default:
		return Off, fmt.Errorf("obs: unknown level %q (want off, metrics or trace)", s)
	}
}

// DefaultRingSize is the default per-CPU event-ring capacity. At ~64
// bytes per event this is ~1MB per CPU; long runs overwrite the oldest
// events and the exporters report how many were dropped.
const DefaultRingSize = 1 << 14

// Options configures an Observer.
type Options struct {
	// Level selects what is recorded (default Off — use New only when
	// you want at least Metrics).
	Level Level
	// RingSize is the per-CPU event-ring capacity, rounded up to a
	// power of two; 0 means DefaultRingSize. Ignored below Trace.
	RingSize int
	// StreamSize, when > 0 at Trace level, additionally tees every
	// emitted event into one global ring in emission order — the
	// canonical sequence behind the NDJSON stream exporters. The engine
	// is a sequential simulation, so emission order is deterministic
	// (a pure function of config and seed), which is what lets a live
	// consumer draining the stream incrementally see byte-identical
	// output to a post-hoc export of the same run.
	StreamSize int
}

// Observer is one engine's observability state: per-CPU event rings, a
// metrics registry, and the thread-name table the exporters label
// tracks with. A nil Observer is valid and means "off".
type Observer struct {
	level Level
	rings []*Ring
	// sums are the per-CPU running hashes of every event Emit has
	// appended to rings[cpu] (see foldEvent); StateDigest reads them
	// instead of the rings.
	sums []uint64
	reg  *Registry
	// stream is the optional global emission-order ring (Options.
	// StreamSize). It is a derived tee of the per-CPU rings — the same
	// events in the order Emit saw them — and is deliberately excluded
	// from StateDigest: resume verification already pins the per-CPU
	// rings, and the stream's consumers track their own cursors.
	stream *Ring

	// names maps thread IDs to their spawn names. Written by the engine
	// goroutine; read by exporters after the run.
	names map[mem.ThreadID]string
}

// New builds an observer for an engine with ncpu processors.
func New(ncpu int, opts Options) *Observer {
	if ncpu < 1 {
		// Invariant: callers size the observer from a validated
		// platform.
		panic(fmt.Sprintf("obs: observer for %d CPUs", ncpu))
	}
	o := &Observer{
		level: opts.Level,
		reg:   NewRegistry(ncpu),
		names: make(map[mem.ThreadID]string),
	}
	if opts.Level >= Trace {
		size := opts.RingSize
		if size <= 0 {
			size = DefaultRingSize
		}
		o.rings = make([]*Ring, ncpu)
		o.sums = make([]uint64, ncpu)
		for i := range o.rings {
			o.rings[i] = NewRing(size)
		}
		if opts.StreamSize > 0 {
			o.stream = NewRing(opts.StreamSize)
		}
	}
	return o
}

// Tracing reports whether event emission is on. Nil-safe: the engine's
// hot paths guard every Emit with it, and a nil observer costs exactly
// this branch.
func (o *Observer) Tracing() bool { return o != nil && o.level >= Trace }

// MetricsOn reports whether the metrics registry is live. Nil-safe.
func (o *Observer) MetricsOn() bool { return o != nil && o.level >= Metrics }

// Level returns the observer's level (Off for nil).
func (o *Observer) Level() Level {
	if o == nil {
		return Off
	}
	return o.level
}

// Registry returns the metrics registry, or nil when o is nil.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// NCPU returns the processor count the observer was built for.
func (o *Observer) NCPU() int { return o.reg.ncpu }

// Emit appends one event to its CPU's ring (and to the global stream
// ring when configured) and folds it into the CPU's running hash.
// Callers must guard with Tracing(); the event's CPU must be in range.
func (o *Observer) Emit(ev Event) {
	o.rings[ev.CPU].Append(ev)
	o.sums[ev.CPU] = foldEvent(o.sums[ev.CPU], ev)
	if o.stream != nil {
		o.stream.Append(ev)
	}
}

// Stream returns the global emission-order ring, or nil when the
// observer was built without one (StreamSize 0, level below Trace, or
// o nil).
func (o *Observer) Stream() *Ring {
	if o == nil {
		return nil
	}
	return o.stream
}

// Ring returns cpu's event ring (nil below Trace level).
func (o *Observer) Ring(cpu int) *Ring {
	if o == nil || o.rings == nil {
		return nil
	}
	return o.rings[cpu]
}

// NameThread records a thread's name for the exporters. Empty names
// are kept empty; exporters fall back to "t<id>".
func (o *Observer) NameThread(tid mem.ThreadID, name string) {
	if o == nil {
		return
	}
	o.names[tid] = name
}

// ThreadName returns the recorded name of tid, or "t<id>".
func (o *Observer) ThreadName(tid mem.ThreadID) string {
	if o != nil {
		if n := o.names[tid]; n != "" {
			return n
		}
	}
	return fmt.Sprintf("t%d", int32(tid))
}

// Cell is one named observer inside a Session — one experiment cell
// (or the only cell of a single atsim run).
type Cell struct {
	// Key identifies the cell; export order sorts by it. Keys must be
	// a pure function of the run's configuration (never of worker
	// timing), so that multi-cell exports are byte-identical for any
	// -j. Two cells MAY share a key only if their runs are identical
	// (same config ⇒ same deterministic run ⇒ same bytes), in which
	// case their export order is immaterial.
	Key string
	Obs *Observer
}

// Session collects the observers of a set of runs — the cells of a
// parallel experiment sweep — and exports them deterministically.
// Observer registration is the only synchronized operation (cells are
// created from -j worker goroutines); everything else happens after
// the runs complete.
type Session struct {
	level Level
	ring  int

	mu    sync.Mutex
	cells []*Cell
}

// NewSession builds a session whose observers record at the given
// level with the given per-CPU ring capacity (0 = DefaultRingSize).
func NewSession(level Level, ringSize int) *Session {
	return &Session{level: level, ring: ringSize}
}

// Level returns the level session observers record at.
func (s *Session) Level() Level {
	if s == nil {
		return Off
	}
	return s.level
}

// Observer creates and registers a new observer for a cell. Safe for
// concurrent use by worker goroutines. Returns nil (recording nothing)
// when s is nil or the session level is Off, so callers can wire it
// unconditionally.
func (s *Session) Observer(key string, ncpu int) *Observer {
	if s == nil || s.level == Off {
		return nil
	}
	o := New(ncpu, Options{Level: s.level, RingSize: s.ring})
	s.mu.Lock()
	s.cells = append(s.cells, &Cell{Key: key, Obs: o})
	s.mu.Unlock()
	return o
}

// Cells returns the registered cells sorted by key. Cells with equal
// keys came from identical runs (see Cell.Key), so the residual order
// among them cannot affect exported bytes.
func (s *Session) Cells() []*Cell {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := append([]*Cell(nil), s.cells...)
	s.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// MergedSnapshot merges every cell's metrics registry in sorted-key
// order into one deterministic snapshot.
func (s *Session) MergedSnapshot() Snapshot {
	var merged Snapshot
	for _, c := range s.Cells() {
		merged = MergeSnapshots(merged, c.Obs.Registry().Snapshot())
	}
	return merged
}
