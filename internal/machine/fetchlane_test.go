package machine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/mem"
)

// The fused instruction-fetch lane (cachesim.FetchRange via TouchCode)
// must be event-for-event identical to the per-line Inst loop that
// noFastApply keeps: cycles, E-cache counters, PICs, TLB misses, the
// statistics of all three caches, every resident line with its owner
// and coherence marks, and the directory's sharer sets. Data sweeps
// are interleaved so inclusion victims evict code lines between
// fetches; the miss hook must never fire for a fetch on either path.

// fetchFingerprint extends cpuFingerprint with the L1I statistics, the
// resident lines of every cache and the coherence directory.
func fetchFingerprint(m *Machine, cpus int) string {
	var b strings.Builder
	b.WriteString(cpuFingerprint(m, cpus))
	lines := func(name string, c *cachesim.Cache) {
		fmt.Fprintf(&b, "  %s:", name)
		c.ForEachValidLine(func(line mem.Addr, owner mem.ThreadID) {
			fmt.Fprintf(&b, " %x/%v", line, owner)
			if c.IsDirty(line) {
				b.WriteString("d")
			}
			if c.IsShared(line) {
				b.WriteString("s")
			}
		})
		b.WriteString("\n")
	}
	for i := 0; i < cpus; i++ {
		h := m.CPU(i).Hier
		fmt.Fprintf(&b, "cpu%d l1i=%+v l1ivalid=%d\n", i, h.L1I.Stats(), h.L1I.ValidLines())
		lines("l1i", h.L1I)
		lines("l1d", h.L1D)
		lines("l2", h.L2)
	}
	if m.dir != nil {
		m.dir.forEach(func(line mem.Addr, e dirEntry) {
			fmt.Fprintf(&b, "dir %x %v owner=%d\n", line, e.sharers, e.dirtyOwner)
		})
	}
	return b.String()
}

// fetchPair builds a fused and a per-line machine with identical
// allocations: a code region and a data region.
func fetchPair(t testing.TB, cfg Config, codeLen, dataLen uint64) (fast, slow *Machine, code, data mem.Range) {
	t.Helper()
	fast, slow = New(cfg), New(cfg)
	slow.noFastApply = true
	code, data = fast.Alloc(codeLen, 0), fast.Alloc(dataLen, 0)
	if c2, d2 := slow.Alloc(codeLen, 0), slow.Alloc(dataLen, 0); c2 != code || d2 != data {
		t.Fatal("allocators diverged")
	}
	return fast, slow, code, data
}

// hookCounter installs a miss hook that counts calls landing inside r.
func hookCounter(m *Machine, r mem.Range) *int {
	n := new(int)
	m.MissHook = func(_ mem.ThreadID, va mem.Addr) {
		if va >= r.Base && va < r.End() {
			*n++
		}
	}
	return n
}

func compareFetch(t testing.TB, fast, slow *Machine, cpus int, when string) {
	t.Helper()
	if got, want := fetchFingerprint(fast, cpus), fetchFingerprint(slow, cpus); got != want {
		t.Fatalf("%s: fused fetch diverged from per-line fetch:\nfused:\n%s\nper-line:\n%s", when, got, want)
	}
}

func TestFetchLaneMatchesPerLine(t *testing.T) {
	small := func(cpus, tlb int) Config {
		c := smallConfig(cpus)
		c.TLBEntries = tlb
		return c
	}
	l1iWays := func(c Config, ways int) Config {
		c.L1I.Assoc = ways
		return c
	}
	big := func(cpus, tlb int) Config {
		c := Enterprise5000(cpus)
		c.TLBEntries = tlb
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		// code and data region sizes; small geometries use regions
		// several times the L1I (512 B) and L2 (4 KB).
		codeLen, dataLen uint64
	}{
		{"small-1cpu", small(1, 0), 6 << 10, 16 << 10},
		{"small-1cpu-tlb", small(1, 8), 6 << 10, 16 << 10},
		{"small-8cpu", small(8, 0), 6 << 10, 16 << 10},
		{"small-8cpu-tlb", small(8, 8), 6 << 10, 16 << 10},
		{"small-4cpu-dm-l1i", l1iWays(small(4, 8), 1), 6 << 10, 16 << 10},
		{"small-4cpu-4way-l1i", l1iWays(small(4, 0), 4), 6 << 10, 16 << 10},
		{"e5000-1cpu-tlb", big(1, 64), 64 << 10, 1 << 20},
		{"e5000-8cpu", big(8, 0), 64 << 10, 1 << 20},
		{"e5000-8cpu-tlb", big(8, 64), 64 << 10, 1 << 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cpus := tc.cfg.CPUs
			fast, slow, code, data := fetchPair(t, tc.cfg, tc.codeLen, tc.dataLen)
			fastHook, slowHook := hookCounter(fast, code), hookCounter(slow, code)
			l1i := uint64(tc.cfg.L1I.Size)
			rng := refLCG(uint64(len(tc.name)) * 7919)
			steps := 3000
			if testing.Short() {
				steps = 1000
			}
			for step := 0; step < steps; step++ {
				cpu := int(rng.next() % uint64(cpus))
				tid := mem.ThreadID(rng.next() % 6)
				switch rng.next() % 5 {
				case 0, 1, 2:
					// Fetch: unaligned bases, lengths from one byte to
					// beyond the L1I, crossing pages.
					var n uint64
					switch rng.next() % 3 {
					case 0:
						n = rng.next()%64 + 1
					case 1:
						n = rng.next()%l1i + 1
					default:
						n = l1i + rng.next()%(2*l1i)
					}
					off := rng.next() % code.Len
					if off+n > code.Len {
						n = code.Len - off
					}
					r := mem.Range{Base: code.Base + mem.Addr(off), Len: n}
					fast.TouchCode(cpu, tid, r)
					slow.TouchCode(cpu, tid, r)
				case 3:
					// Data sweep over the data region: its L2 fills evict
					// code lines (and their L1I sublines by inclusion).
					n := rng.next()%(data.Len/16) + 1
					off := (rng.next() % (data.Len - n*8)) &^ 7
					a := mem.Access{Base: data.Base + mem.Addr(off), Count: int32(n), Stride: 8, Size: 8, Write: rng.next()%3 == 0}
					applyBoth(t, fast, slow, cpu, tid, mem.Batch{a})
				default:
					// Stores into the code region from another CPU: code
					// lines go dirty and remote, so later fetches take
					// the remote-dirty penalty class and downgrade.
					off := (rng.next() % code.Len) &^ 7
					a := mem.Access{Base: code.Base + mem.Addr(off), Count: 1, Stride: 8, Size: 8, Write: true}
					applyBoth(t, fast, slow, cpu, tid, mem.Batch{a})
				}
				if step%500 == 499 {
					compareFetch(t, fast, slow, cpus, fmt.Sprintf("step %d", step))
				}
			}
			compareFetch(t, fast, slow, cpus, "end")
			if *fastHook != *slowHook {
				t.Fatalf("miss hook saw %d code-region misses fused, %d per-line", *fastHook, *slowHook)
			}
			if err := fast.CheckCoherence(); err != nil {
				t.Fatalf("fused machine incoherent: %v", err)
			}
		})
	}
}

// TestFetchLaneNoMissHook pins that instruction fetches never reach
// the data miss hook (sharing inference watches data misses only).
func TestFetchLaneNoMissHook(t *testing.T) {
	m := New(Enterprise5000(2))
	code := m.Alloc(8192, 0)
	calls := 0
	m.MissHook = func(mem.ThreadID, mem.Addr) { calls++ }
	m.TouchCode(0, 1, code)
	m.TouchCode(1, 2, code)
	if m.CPU(0).EMisses == 0 {
		t.Fatal("cold fetch took no E-cache misses")
	}
	if calls != 0 {
		t.Fatalf("miss hook fired %d times for instruction fetches", calls)
	}
}

// FuzzFetchLane compares one fused fetch with the per-line loop after
// a warm-up that leaves the caches partly resident, partly dirty in a
// remote CPU and partly evicted by a data sweep.
func FuzzFetchLane(f *testing.F) {
	f.Add(uint32(0), uint16(2048), uint8(0))
	f.Add(uint32(17), uint16(1), uint8(1))
	f.Add(uint32(1000), uint16(3000), uint8(3))
	f.Add(uint32(4095), uint16(65535), uint8(2))
	f.Fuzz(func(t *testing.T, base uint32, length uint16, cpu uint8) {
		const cpus = 4
		cfg := smallConfig(cpus)
		cfg.TLBEntries = 4
		fast, slow, code, data := fetchPair(t, cfg, 80<<10, 8<<10)
		off := uint64(base) % code.Len
		n := uint64(length)
		if off+n > code.Len {
			n = code.Len - off
		}
		r := mem.Range{Base: code.Base + mem.Addr(off), Len: n}
		p := int(cpu % cpus)
		warm := mem.Range{Base: r.Base, Len: n / 2}
		for _, m := range []*Machine{fast, slow} {
			m.TouchCode(p, 1, warm)
			m.Apply((p+1)%cpus, 2, mem.Batch{{Base: r.Base &^ 7, Count: int32(n/64) + 1, Stride: 64, Size: 8, Write: true}})
			m.Apply(p, 3, mem.Batch{{Base: data.Base, Count: 256, Stride: 16, Size: 8}})
			m.TouchCode(p, 4, r)
		}
		compareFetch(t, fast, slow, cpus, fmt.Sprintf("fetch %+v on cpu %d", r, p))
	})
}
