// Package snapshot defines the versioned, checksummed on-disk format
// for engine checkpoints: one State value is a bit-exact capture of
// the complete locality-runtime state at a virtual-cycle boundary —
// the thread table and run states, the scheduler's footprint entries
// S/SLast/M0/priority and queue structures, the dependency graph G
// with its q weights, the counter sanitizer and quarantine state, the
// per-CPU virtual clocks, counters and pending timers, every RNG
// stream, and a digest of the observability registries.
//
// The engine is a deterministic sequential simulation, so a snapshot
// does not need to serialize thread stacks (which live on Go
// goroutines and cannot be captured): a resumed run re-executes
// deterministically from the start, and when it reaches the snapshot's
// step cursor the live state is compared against the capture
// bit-for-bit. A match proves the resumed run is the same run — every
// later golden, trace and export is then byte-identical to an
// uninterrupted run by construction — while any divergence (different
// binary, different flags, corrupted file) fails loudly with a
// field-level diff instead of silently producing different science.
// docs/SNAPSHOT.md is the format reference.
//
// Files are written atomically (temp file + fsync + rename, via
// internal/fsatomic), so a process killed mid-checkpoint leaves either
// the previous complete snapshot or the new one — never a torn file.
// Load validates the magic, version, length and CRC before decoding,
// decodes with bounds checks everywhere, and returns descriptive
// errors — it never panics on malformed input (FuzzLoadSnapshot pins
// this, mirroring the internal/trace fuzz pattern).
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"

	"repro/internal/fsatomic"
)

// Version is the current snapshot format version. Bump it on any
// change to the payload layout; Load refuses other versions with a
// descriptive error (see docs/SNAPSHOT.md for the compatibility
// policy: snapshots are re-creatable from the run config, so there is
// no cross-version migration — a version skew means "re-run").
const Version = 1

// magic identifies a snapshot file. The trailing \r\n catches ASCII
// transfer mangling, as PNG's magic does.
var magic = [8]byte{'A', 'T', 'S', 'N', 'A', 'P', '\r', '\n'}

// crcTable is the ECMA polynomial table used for the payload checksum.
var crcTable = crc64.MakeTable(crc64.ECMA)

// maxStringLen bounds any decoded string (names, config values,
// diagnostics) so a hostile length prefix cannot drive a huge
// allocation.
const maxStringLen = 1 << 20

// KV is one runner-level configuration pair recorded in the snapshot
// (application name, policy, scale, fault spec, ...). The engine
// treats it as opaque; resume compares it so a snapshot cannot be
// silently applied to a differently-configured run.
type KV struct {
	K, V string
}

// CPUState is one processor's captured state.
type CPUState struct {
	// Clock is the CPU's virtual cycle clock.
	Clock uint64
	// Misses is the cumulative 64-bit E-cache miss count m(t).
	Misses uint64
	// Refs/Hits are the wrapped 32-bit PIC readings at capture.
	Refs, Hits uint32
	// BaseRefs/BaseHits are the PIC readings at the last dispatch on
	// this CPU (the engine's picBase — the open interval's start).
	BaseRefs, BaseHits uint32
	// Idle is the accumulated parked cycles; Dispatches the
	// context-switch count.
	Idle, Dispatches uint64
	// Parked reports whether the CPU is idle-parked.
	Parked bool
	// Running is the thread installed on the CPU, or -1.
	Running int64
}

// TimerState is one pending sleep deadline.
type TimerState struct {
	WakeAt, Seq uint64
	Thread      int64
}

// ThreadState is one thread's engine-level state. The thread's stack
// is not captured (resume re-executes the body); everything the engine
// tracks about it is.
type ThreadState struct {
	ID     int64
	Name   string
	Status uint8
	// BlockedOn names what a blocked thread waits for ("" otherwise) —
	// it captures the wait-for relationships the sync objects hold.
	BlockedOn string
	CPU       int32
	Cycles    uint64
	// DispatchClock/DispatchCount/DispatchMisses/ReadyClock mirror the
	// engine's per-thread accounting fields of the same names.
	DispatchClock  uint64
	DispatchCount  uint64
	DispatchMisses uint64
	ReadyClock     uint64
	// RNG is the thread's SplitMix64 stream state.
	RNG uint64
	// Joiners are the threads blocked in Join on this one.
	Joiners []int64
}

// SchedEntry is one (thread, CPU) footprint record of the scheduler.
// Floats are compared bit-exactly by Diff.
type SchedEntry struct {
	CPU       int32
	S         float64
	SLast     float64
	M0        uint64
	Prio      float64
	DispatchS float64
	DispatchM uint64
	HeapIdx   int32
}

// SchedThread is the scheduler's view of one thread.
type SchedThread struct {
	ID       int64
	Runnable bool
	Running  bool
	InGlobal bool
	InSpawn  bool
	Entries  []SchedEntry
}

// GlobalEntry is one global-FIFO position (including lazily deleted
// ones — the raw queue is deterministic and is captured as stored).
type GlobalEntry struct {
	Thread int64
	Stamp  uint64
}

// SchedState is the complete scheduler capture.
type SchedState struct {
	DispatchCount uint64
	Escapes       uint64
	// Ops are the data-structure work counters in declaration order:
	// pushes, pops, fixes, removes, queue ops, steals, prio updates,
	// demotions.
	Ops [8]uint64
	// Quarantine is the per-CPU quarantine flag (mirrors Health but is
	// the scheduler's own view; the two must agree).
	Quarantine []bool
	// Global is the global FIFO from its head cursor onward.
	Global []GlobalEntry
	// Spawn is each CPU's spawn stack (raw, oldest first).
	Spawn [][]int64
	// Heaps is each CPU's priority heap in array order.
	Heaps [][]int64
	// Threads is sorted by ID.
	Threads []SchedThread
}

// GraphEdge is one dependency edge with its sharing coefficient.
type GraphEdge struct {
	From, To int64
	Q        float64
}

// HealthState is one CPU's sanitizer/quarantine state machine capture.
type HealthState struct {
	OK, Suspect, Rejected   uint64
	Quarantines, Recoveries uint64
	StreakRejected          int64
	StreakClean             int64
	Frozen                  int64
	Quarantined             bool
}

// State is one complete engine capture. All fields participate in the
// canonical encoding; two States are "the same state" exactly when
// their Encode bytes are equal.
type State struct {
	// Config is the runner-level run configuration, sorted by key.
	Config []KV
	// Policy/NCPU/CacheLines/Seed pin the engine geometry a resume
	// must reproduce.
	Policy     string
	NCPU       int32
	CacheLines int64
	Seed       uint64

	// CheckpointEvery is the virtual-cycle checkpoint interval the run
	// was using; NextCheckpoint the boundary after this one. Resume
	// inherits both so a resumed run writes the same later
	// checkpoints an uninterrupted run would.
	CheckpointEvery uint64
	NextCheckpoint  uint64

	// Steps is the engine-step cursor the capture was taken at (top of
	// the run loop, before the step executes); Now the engine's global
	// virtual clock there.
	Steps uint64
	Now   uint64

	NextID   int64
	Live     int32
	TimerSeq uint64
	// EngineRNG is the engine's own SplitMix64 state.
	EngineRNG uint64

	CPUs    []CPUState
	Timers  []TimerState
	Threads []ThreadState
	Sched   SchedState
	Graph   []GraphEdge
	Health  []HealthState

	// ModelFLOPs is the model's floating-point operation count.
	ModelFLOPs uint64
	// ObsDigest is obs.Observer.StateDigest: a 64-bit FNV-1a digest
	// of the metric registries and, per CPU, the event count and the
	// running hash of every event emitted there; 0 when observability
	// is off. Trace-level snapshots written before the running hash
	// hold Observer.WindowDigest instead, which resume also accepts.
	ObsDigest uint64
}

// ConfigValue returns the value of config key k, or "".
func (s *State) ConfigValue(k string) string {
	for _, kv := range s.Config {
		if kv.K == k {
			return kv.V
		}
	}
	return ""
}

// Fingerprint is the CRC64 of the canonical encoding — a compact
// identity for "this exact state" (the soak harness compares final
// fingerprints across kill/resume schedules).
func (s *State) Fingerprint() uint64 {
	return crc64.Checksum(s.encodePayload(), crcTable)
}

// Save writes the snapshot to w: magic, version, payload length,
// payload CRC64, payload.
func (s *State) Save(w io.Writer) error {
	payload := s.encodePayload()
	var hdr [28]byte
	copy(hdr[0:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint64(hdr[20:28], crc64.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("snapshot: write payload: %w", err)
	}
	return nil
}

// WriteFile atomically writes the snapshot to path (temp + fsync +
// rename): a kill at any instant leaves either the previous complete
// snapshot or this one.
func (s *State) WriteFile(path string) error {
	return fsatomic.WriteFile(path, func(w io.Writer) error { return s.Save(w) })
}

// Load reads and validates a snapshot. Errors are descriptive
// (truncation offsets, version skew, checksum mismatch); malformed
// input never panics.
func Load(r io.Reader) (*State, error) {
	var hdr [28]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: header: %w (file truncated or not a snapshot)", err)
	}
	if !bytes.Equal(hdr[0:8], magic[:]) {
		return nil, fmt.Errorf("snapshot: bad magic %q (not a snapshot file)", hdr[0:8])
	}
	version := binary.LittleEndian.Uint32(hdr[8:12])
	if version != Version {
		return nil, fmt.Errorf("snapshot: format version %d; this binary reads version %d — re-run from the original configuration instead of resuming", version, Version)
	}
	size := binary.LittleEndian.Uint64(hdr[12:20])
	const maxPayload = 1 << 31
	if size > maxPayload {
		return nil, fmt.Errorf("snapshot: payload length %d exceeds the %d-byte bound", size, maxPayload)
	}
	// Read what is there rather than allocating the claimed length up
	// front: a corrupt or hostile header must not cost gigabytes.
	payload, err := io.ReadAll(io.LimitReader(r, int64(size)))
	if err == nil && uint64(len(payload)) != size {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: payload truncated at byte %d of %d: %w", len(payload), size, err)
	}
	want := binary.LittleEndian.Uint64(hdr[20:28])
	if got := crc64.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("snapshot: checksum mismatch (stored %016x, computed %016x): file corrupted", want, got)
	}
	d := &decoder{buf: payload}
	st := d.state()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after state at offset %d", len(d.buf)-d.off, d.off)
	}
	return st, nil
}

// LoadFile loads a snapshot from path.
func LoadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	st, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return st, nil
}

// ---- encoding ----
//
// The payload is a flat little-endian stream: fixed-width integers,
// float64 as IEEE bits, strings and slices with uvarint length
// prefixes. Field order is the State declaration order; the encoding
// is canonical (one State value has exactly one encoding), which is
// what lets verification compare encoded bytes.

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)    { e.buf = append(e.buf, v) }
func (e *encoder) bool(v bool)   { e.u8(map[bool]uint8{false: 0, true: 1}[v]) }
func (e *encoder) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) i32(v int32)   { e.u32(uint32(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) count(n int)   { e.buf = binary.AppendUvarint(e.buf, uint64(n)) }
func (e *encoder) str(s string) {
	e.count(len(s))
	e.buf = append(e.buf, s...)
}

func (s *State) encodePayload() []byte {
	e := &encoder{buf: make([]byte, 0, 4096)}
	e.count(len(s.Config))
	for _, kv := range s.Config {
		e.str(kv.K)
		e.str(kv.V)
	}
	e.str(s.Policy)
	e.i32(s.NCPU)
	e.i64(s.CacheLines)
	e.u64(s.Seed)
	e.u64(s.CheckpointEvery)
	e.u64(s.NextCheckpoint)
	e.u64(s.Steps)
	e.u64(s.Now)
	e.i64(s.NextID)
	e.i32(s.Live)
	e.u64(s.TimerSeq)
	e.u64(s.EngineRNG)
	e.count(len(s.CPUs))
	for _, c := range s.CPUs {
		e.u64(c.Clock)
		e.u64(c.Misses)
		e.u32(c.Refs)
		e.u32(c.Hits)
		e.u32(c.BaseRefs)
		e.u32(c.BaseHits)
		e.u64(c.Idle)
		e.u64(c.Dispatches)
		e.bool(c.Parked)
		e.i64(c.Running)
	}
	e.count(len(s.Timers))
	for _, t := range s.Timers {
		e.u64(t.WakeAt)
		e.u64(t.Seq)
		e.i64(t.Thread)
	}
	e.count(len(s.Threads))
	for _, t := range s.Threads {
		e.i64(t.ID)
		e.str(t.Name)
		e.u8(t.Status)
		e.str(t.BlockedOn)
		e.i32(t.CPU)
		e.u64(t.Cycles)
		e.u64(t.DispatchClock)
		e.u64(t.DispatchCount)
		e.u64(t.DispatchMisses)
		e.u64(t.ReadyClock)
		e.u64(t.RNG)
		e.count(len(t.Joiners))
		for _, j := range t.Joiners {
			e.i64(j)
		}
	}
	e.u64(s.Sched.DispatchCount)
	e.u64(s.Sched.Escapes)
	for _, op := range s.Sched.Ops {
		e.u64(op)
	}
	e.count(len(s.Sched.Quarantine))
	for _, q := range s.Sched.Quarantine {
		e.bool(q)
	}
	e.count(len(s.Sched.Global))
	for _, g := range s.Sched.Global {
		e.i64(g.Thread)
		e.u64(g.Stamp)
	}
	e.count(len(s.Sched.Spawn))
	for _, stack := range s.Sched.Spawn {
		e.count(len(stack))
		for _, tid := range stack {
			e.i64(tid)
		}
	}
	e.count(len(s.Sched.Heaps))
	for _, h := range s.Sched.Heaps {
		e.count(len(h))
		for _, tid := range h {
			e.i64(tid)
		}
	}
	e.count(len(s.Sched.Threads))
	for _, t := range s.Sched.Threads {
		e.i64(t.ID)
		e.bool(t.Runnable)
		e.bool(t.Running)
		e.bool(t.InGlobal)
		e.bool(t.InSpawn)
		e.count(len(t.Entries))
		for _, en := range t.Entries {
			e.i32(en.CPU)
			e.f64(en.S)
			e.f64(en.SLast)
			e.u64(en.M0)
			e.f64(en.Prio)
			e.f64(en.DispatchS)
			e.u64(en.DispatchM)
			e.i32(en.HeapIdx)
		}
	}
	e.count(len(s.Graph))
	for _, g := range s.Graph {
		e.i64(g.From)
		e.i64(g.To)
		e.f64(g.Q)
	}
	e.count(len(s.Health))
	for _, h := range s.Health {
		e.u64(h.OK)
		e.u64(h.Suspect)
		e.u64(h.Rejected)
		e.u64(h.Quarantines)
		e.u64(h.Recoveries)
		e.i64(h.StreakRejected)
		e.i64(h.StreakClean)
		e.i64(h.Frozen)
		e.bool(h.Quarantined)
	}
	e.u64(s.ModelFLOPs)
	e.u64(s.ObsDigest)
	return e.buf
}

// ---- decoding ----

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: "+format+" (payload offset %d)", append(args, d.off)...)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.fail("need %d bytes, %d remain", n, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) bool() bool {
	switch v := d.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool byte %d", v)
		return false
	}
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) i32() int32   { return int32(d.u32()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a uvarint element count and bounds it: each element of
// the section needs at least elemSize payload bytes, so a count larger
// than remaining/elemSize is provably corrupt and is rejected before
// any allocation.
func (d *decoder) count(elemSize int) int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint count")
		return 0
	}
	d.off += n
	if remain := len(d.buf) - d.off; v > uint64(remain/elemSize) {
		d.fail("count %d exceeds remaining payload (%d bytes)", v, remain)
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.count(1)
	if n > maxStringLen {
		d.fail("string length %d exceeds %d", n, maxStringLen)
		return ""
	}
	b := d.take(n)
	return string(b)
}

func (d *decoder) state() *State {
	s := &State{}
	for i, n := 0, d.count(2); i < n && d.err == nil; i++ {
		s.Config = append(s.Config, KV{K: d.str(), V: d.str()})
	}
	s.Policy = d.str()
	s.NCPU = d.i32()
	s.CacheLines = d.i64()
	s.Seed = d.u64()
	s.CheckpointEvery = d.u64()
	s.NextCheckpoint = d.u64()
	s.Steps = d.u64()
	s.Now = d.u64()
	s.NextID = d.i64()
	s.Live = d.i32()
	s.TimerSeq = d.u64()
	s.EngineRNG = d.u64()
	for i, n := 0, d.count(49); i < n && d.err == nil; i++ {
		s.CPUs = append(s.CPUs, CPUState{
			Clock: d.u64(), Misses: d.u64(),
			Refs: d.u32(), Hits: d.u32(), BaseRefs: d.u32(), BaseHits: d.u32(),
			Idle: d.u64(), Dispatches: d.u64(), Parked: d.bool(), Running: d.i64(),
		})
	}
	for i, n := 0, d.count(24); i < n && d.err == nil; i++ {
		s.Timers = append(s.Timers, TimerState{WakeAt: d.u64(), Seq: d.u64(), Thread: d.i64()})
	}
	for i, n := 0, d.count(64); i < n && d.err == nil; i++ {
		t := ThreadState{
			ID: d.i64(), Name: d.str(), Status: d.u8(), BlockedOn: d.str(),
			CPU: d.i32(), Cycles: d.u64(), DispatchClock: d.u64(),
			DispatchCount: d.u64(), DispatchMisses: d.u64(), ReadyClock: d.u64(),
			RNG: d.u64(),
		}
		for j, m := 0, d.count(8); j < m && d.err == nil; j++ {
			t.Joiners = append(t.Joiners, d.i64())
		}
		s.Threads = append(s.Threads, t)
	}
	s.Sched.DispatchCount = d.u64()
	s.Sched.Escapes = d.u64()
	for i := range s.Sched.Ops {
		s.Sched.Ops[i] = d.u64()
	}
	for i, n := 0, d.count(1); i < n && d.err == nil; i++ {
		s.Sched.Quarantine = append(s.Sched.Quarantine, d.bool())
	}
	for i, n := 0, d.count(16); i < n && d.err == nil; i++ {
		s.Sched.Global = append(s.Sched.Global, GlobalEntry{Thread: d.i64(), Stamp: d.u64()})
	}
	for i, n := 0, d.count(1); i < n && d.err == nil; i++ {
		var stack []int64
		for j, m := 0, d.count(8); j < m && d.err == nil; j++ {
			stack = append(stack, d.i64())
		}
		s.Sched.Spawn = append(s.Sched.Spawn, stack)
	}
	for i, n := 0, d.count(1); i < n && d.err == nil; i++ {
		var h []int64
		for j, m := 0, d.count(8); j < m && d.err == nil; j++ {
			h = append(h, d.i64())
		}
		s.Sched.Heaps = append(s.Sched.Heaps, h)
	}
	for i, n := 0, d.count(13); i < n && d.err == nil; i++ {
		t := SchedThread{
			ID: d.i64(), Runnable: d.bool(), Running: d.bool(),
			InGlobal: d.bool(), InSpawn: d.bool(),
		}
		for j, m := 0, d.count(48); j < m && d.err == nil; j++ {
			t.Entries = append(t.Entries, SchedEntry{
				CPU: d.i32(), S: d.f64(), SLast: d.f64(), M0: d.u64(),
				Prio: d.f64(), DispatchS: d.f64(), DispatchM: d.u64(), HeapIdx: d.i32(),
			})
		}
		s.Sched.Threads = append(s.Sched.Threads, t)
	}
	for i, n := 0, d.count(24); i < n && d.err == nil; i++ {
		s.Graph = append(s.Graph, GraphEdge{From: d.i64(), To: d.i64(), Q: d.f64()})
	}
	for i, n := 0, d.count(65); i < n && d.err == nil; i++ {
		s.Health = append(s.Health, HealthState{
			OK: d.u64(), Suspect: d.u64(), Rejected: d.u64(),
			Quarantines: d.u64(), Recoveries: d.u64(),
			StreakRejected: d.i64(), StreakClean: d.i64(), Frozen: d.i64(),
			Quarantined: d.bool(),
		})
	}
	s.ModelFLOPs = d.u64()
	s.ObsDigest = d.u64()
	return s
}

// ---- comparison ----

// Equal reports whether a and b are the same state (canonical
// encodings are byte-equal; floats compare as bits).
func Equal(a, b *State) bool {
	return bytes.Equal(a.encodePayload(), b.encodePayload())
}

// Diff returns nil when the states are equal, or a descriptive error
// naming the first field-level divergence. It is the message behind
// resume-verification failures, so it favours precision: which
// section, which CPU or thread, stored vs live value.
func Diff(stored, live *State) error {
	if Equal(stored, live) {
		return nil
	}
	if d := diffConfig(stored, live); d != nil {
		return d
	}
	if stored.Policy != live.Policy {
		return fmt.Errorf("snapshot: policy %q != live %q", stored.Policy, live.Policy)
	}
	if stored.NCPU != live.NCPU {
		return fmt.Errorf("snapshot: ncpu %d != live %d", stored.NCPU, live.NCPU)
	}
	if stored.CacheLines != live.CacheLines {
		return fmt.Errorf("snapshot: cache lines %d != live %d", stored.CacheLines, live.CacheLines)
	}
	if stored.Seed != live.Seed {
		return fmt.Errorf("snapshot: seed %d != live %d", stored.Seed, live.Seed)
	}
	if stored.Steps != live.Steps {
		return fmt.Errorf("snapshot: step cursor %d != live %d", stored.Steps, live.Steps)
	}
	if stored.Now != live.Now {
		return fmt.Errorf("snapshot: virtual clock %d != live %d", stored.Now, live.Now)
	}
	if stored.NextID != live.NextID || stored.Live != live.Live {
		return fmt.Errorf("snapshot: thread census (next id %d, live %d) != live (%d, %d)",
			stored.NextID, stored.Live, live.NextID, live.Live)
	}
	if stored.TimerSeq != live.TimerSeq || len(stored.Timers) != len(live.Timers) {
		return fmt.Errorf("snapshot: timers (seq %d, %d pending) != live (seq %d, %d pending)",
			stored.TimerSeq, len(stored.Timers), live.TimerSeq, len(live.Timers))
	}
	if stored.EngineRNG != live.EngineRNG {
		return fmt.Errorf("snapshot: engine rng %#x != live %#x", stored.EngineRNG, live.EngineRNG)
	}
	for i := range stored.Timers {
		if stored.Timers[i] != live.Timers[i] {
			return fmt.Errorf("snapshot: timer %d %+v != live %+v", i, stored.Timers[i], live.Timers[i])
		}
	}
	for i := range stored.CPUs {
		if i < len(live.CPUs) && stored.CPUs[i] != live.CPUs[i] {
			return fmt.Errorf("snapshot: cpu %d %+v != live %+v", i, stored.CPUs[i], live.CPUs[i])
		}
	}
	if d := diffThreads(stored.Threads, live.Threads); d != nil {
		return d
	}
	if d := diffSched(&stored.Sched, &live.Sched); d != nil {
		return d
	}
	if len(stored.Graph) != len(live.Graph) {
		return fmt.Errorf("snapshot: graph has %d edges, live %d", len(stored.Graph), len(live.Graph))
	}
	for i := range stored.Graph {
		a, b := stored.Graph[i], live.Graph[i]
		if a.From != b.From || a.To != b.To || math.Float64bits(a.Q) != math.Float64bits(b.Q) {
			return fmt.Errorf("snapshot: graph edge %d (%d->%d q=%v) != live (%d->%d q=%v)",
				i, a.From, a.To, a.Q, b.From, b.To, b.Q)
		}
	}
	for i := range stored.Health {
		if i < len(live.Health) && stored.Health[i] != live.Health[i] {
			return fmt.Errorf("snapshot: cpu %d health %+v != live %+v", i, stored.Health[i], live.Health[i])
		}
	}
	if len(stored.Health) != len(live.Health) {
		return fmt.Errorf("snapshot: health records %d != live %d", len(stored.Health), len(live.Health))
	}
	if stored.ModelFLOPs != live.ModelFLOPs {
		return fmt.Errorf("snapshot: model flops %d != live %d", stored.ModelFLOPs, live.ModelFLOPs)
	}
	if stored.ObsDigest != live.ObsDigest {
		return fmt.Errorf("snapshot: obs digest %016x != live %016x", stored.ObsDigest, live.ObsDigest)
	}
	if stored.CheckpointEvery != live.CheckpointEvery || stored.NextCheckpoint != live.NextCheckpoint {
		return fmt.Errorf("snapshot: checkpoint schedule (every %d, next %d) != live (every %d, next %d)",
			stored.CheckpointEvery, stored.NextCheckpoint, live.CheckpointEvery, live.NextCheckpoint)
	}
	return fmt.Errorf("snapshot: states differ (encoding mismatch not attributed to a named field)")
}

func diffConfig(stored, live *State) error {
	if len(stored.Config) != len(live.Config) {
		return fmt.Errorf("snapshot: config has %d keys, live run %d", len(stored.Config), len(live.Config))
	}
	for i := range stored.Config {
		if stored.Config[i] != live.Config[i] {
			return fmt.Errorf("snapshot: config %s=%q, live run %s=%q",
				stored.Config[i].K, stored.Config[i].V, live.Config[i].K, live.Config[i].V)
		}
	}
	return nil
}

func diffThreads(stored, live []ThreadState) error {
	if len(stored) != len(live) {
		return fmt.Errorf("snapshot: %d threads, live %d", len(stored), len(live))
	}
	for i := range stored {
		a, b := stored[i], live[i]
		if a.ID != b.ID || a.Name != b.Name || a.Status != b.Status ||
			a.BlockedOn != b.BlockedOn || a.CPU != b.CPU || a.Cycles != b.Cycles ||
			a.DispatchClock != b.DispatchClock || a.DispatchCount != b.DispatchCount ||
			a.DispatchMisses != b.DispatchMisses || a.ReadyClock != b.ReadyClock ||
			a.RNG != b.RNG {
			return fmt.Errorf("snapshot: thread t%d %+v != live %+v", a.ID, a, b)
		}
		if !int64sEqual(a.Joiners, b.Joiners) {
			return fmt.Errorf("snapshot: thread t%d joiner list %v != live %v", a.ID, a.Joiners, b.Joiners)
		}
	}
	return nil
}

func diffSched(stored, live *SchedState) error {
	if stored.DispatchCount != live.DispatchCount || stored.Escapes != live.Escapes {
		return fmt.Errorf("snapshot: sched dispatches/escapes (%d, %d) != live (%d, %d)",
			stored.DispatchCount, stored.Escapes, live.DispatchCount, live.Escapes)
	}
	if stored.Ops != live.Ops {
		return fmt.Errorf("snapshot: sched ops %v != live %v", stored.Ops, live.Ops)
	}
	if len(stored.Threads) != len(live.Threads) {
		return fmt.Errorf("snapshot: sched tracks %d threads, live %d", len(stored.Threads), len(live.Threads))
	}
	for i := range stored.Threads {
		a, b := stored.Threads[i], live.Threads[i]
		if a.ID != b.ID || a.Runnable != b.Runnable || a.Running != b.Running ||
			a.InGlobal != b.InGlobal || a.InSpawn != b.InSpawn || len(a.Entries) != len(b.Entries) {
			return fmt.Errorf("snapshot: sched thread t%d flags %+v != live %+v", a.ID, a, b)
		}
		for j := range a.Entries {
			ea, eb := a.Entries[j], b.Entries[j]
			if ea.CPU != eb.CPU || ea.M0 != eb.M0 || ea.DispatchM != eb.DispatchM || ea.HeapIdx != eb.HeapIdx ||
				math.Float64bits(ea.S) != math.Float64bits(eb.S) ||
				math.Float64bits(ea.SLast) != math.Float64bits(eb.SLast) ||
				math.Float64bits(ea.Prio) != math.Float64bits(eb.Prio) ||
				math.Float64bits(ea.DispatchS) != math.Float64bits(eb.DispatchS) {
				return fmt.Errorf("snapshot: sched entry (t%d, cpu%d) %+v != live %+v", a.ID, ea.CPU, ea, eb)
			}
		}
	}
	for cpu := range stored.Heaps {
		if cpu < len(live.Heaps) && !int64sEqual(stored.Heaps[cpu], live.Heaps[cpu]) {
			return fmt.Errorf("snapshot: cpu %d heap %v != live %v", cpu, stored.Heaps[cpu], live.Heaps[cpu])
		}
	}
	for cpu := range stored.Spawn {
		if cpu < len(live.Spawn) && !int64sEqual(stored.Spawn[cpu], live.Spawn[cpu]) {
			return fmt.Errorf("snapshot: cpu %d spawn stack %v != live %v", cpu, stored.Spawn[cpu], live.Spawn[cpu])
		}
	}
	if len(stored.Global) != len(live.Global) {
		return fmt.Errorf("snapshot: global queue holds %d entries, live %d", len(stored.Global), len(live.Global))
	}
	for i := range stored.Global {
		if stored.Global[i] != live.Global[i] {
			return fmt.Errorf("snapshot: global queue entry %d %+v != live %+v", i, stored.Global[i], live.Global[i])
		}
	}
	for cpu := range stored.Quarantine {
		if cpu < len(live.Quarantine) && stored.Quarantine[cpu] != live.Quarantine[cpu] {
			return fmt.Errorf("snapshot: cpu %d quarantine %v != live %v", cpu, stored.Quarantine[cpu], live.Quarantine[cpu])
		}
	}
	return nil
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
