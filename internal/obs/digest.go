package obs

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
)

// StateDigest folds the observer's complete recorded state — level,
// every metric's name and shard values, and per CPU the ring's event
// count and running event hash — into one 64-bit FNV-1a digest. A
// checkpoint stores it instead of the full telemetry (rings alone can
// hold megabytes), and resume verification compares digests: equal
// digests mean the resumed run recorded the same telemetry the
// original run had at the boundary, so the eventual exports are
// byte-identical too.
//
// The events enter through the per-CPU running hash Emit keeps
// (foldEvent), never by re-reading the rings, so a digest costs
// O(metrics + CPUs) however full the rings are. The running hash covers
// every event ever emitted on the CPU, including ones the ring has
// since overwritten; equal hashes and totals therefore imply equal
// retained windows. A Metrics-level observer has no rings and digests
// exactly as before the running hash existed.
//
// Deterministic by construction: the registry snapshot is name-sorted,
// events are folded in emission order (itself a function of config
// and seed), the fold is integer arithmetic only, and nothing here
// reads wall time. Nil-safe (a nil or Off observer digests to 0).
func (o *Observer) StateDigest() uint64 { return o.digest(false) }

// WindowDigest is the digest checkpoints stored before events were
// folded at Emit: the same prefix, then every retained event of every
// ring hashed field by field. It reads every ring, so it is computed
// only to accept such a snapshot on resume, once, at the cursor.
func (o *Observer) WindowDigest() uint64 { return o.digest(true) }

func (o *Observer) digest(window bool) uint64 {
	if o == nil || o.level == Off {
		return 0
	}
	h := fnv.New64a()
	var w digestWriter
	w.h = h
	w.u64(uint64(o.level))

	snap := o.reg.Snapshot()
	for _, c := range snap.Counters {
		w.str(c.Name)
		for _, v := range c.PerCPU {
			w.u64(v)
		}
	}
	for _, g := range snap.Gauges {
		w.str(g.Name)
		w.f64(g.Value)
	}
	for _, hs := range snap.Histograms {
		w.str(hs.Name)
		for _, b := range hs.Bounds {
			w.f64(b)
		}
		for _, b := range hs.Buckets {
			w.u64(b)
		}
		w.u64(uint64(hs.Summary.N))
		w.f64(hs.Summary.Mean)
		w.f64(hs.Summary.Var)
		w.f64(hs.Summary.Min)
		w.f64(hs.Summary.Max)
	}
	for cpu, r := range o.rings {
		w.u64(uint64(cpu))
		w.u64(r.Total())
		if !window {
			w.u64(o.sums[cpu])
			continue
		}
		for _, ev := range r.Events() {
			w.u64(ev.Time)
			w.u64(ev.A)
			w.u64(ev.B)
			w.f64(ev.X)
			w.f64(ev.Y)
			w.u64(uint64(uint32(ev.Thread)))
			w.u64(uint64(uint16(ev.CPU)))
			w.u64(uint64(ev.Kind))
			w.u64(uint64(ev.Arg))
		}
	}
	return h.Sum64()
}

// foldEvent extends a CPU's running hash by one event: every field,
// the floats by their bits and the small fields packed into one word.
// Each mix step is a bijection of the running hash for a fixed word and
// of the word for a fixed hash, so changing any one field of any one
// event always changes the result.
func foldEvent(h uint64, ev Event) uint64 {
	h = mix(h, ev.Time)
	h = mix(h, ev.A)
	h = mix(h, ev.B)
	h = mix(h, math.Float64bits(ev.X))
	h = mix(h, math.Float64bits(ev.Y))
	return mix(h, uint64(uint32(ev.Thread))|uint64(uint16(ev.CPU))<<32|
		uint64(ev.Kind)<<48|uint64(ev.Arg)<<56)
}

// The xxHash64 primes.
const (
	prime1 uint64 = 0x9E3779B185EBCA87
	prime2 uint64 = 0xC2B2AE3D27D4EB4F
	prime4 uint64 = 0x85EBCA77C2B2AE63
)

// mix is xxHash64's step for one 8-byte word.
func mix(h, v uint64) uint64 {
	v = bits.RotateLeft64(v*prime2, 31) * prime1
	return bits.RotateLeft64(h^v, 27)*prime1 + prime4
}

// digestWriter feeds fixed-width values into a hash without per-call
// allocation.
type digestWriter struct {
	h   interface{ Write([]byte) (int, error) }
	buf [8]byte
}

func (w *digestWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *digestWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *digestWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}
