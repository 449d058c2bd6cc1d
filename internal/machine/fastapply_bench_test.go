package machine

import (
	"testing"

	"repro/internal/mem"
)

// benchApply measures the raw Apply throughput of a sequential
// read+write sweep over a working set of wsBytes, with and without the
// fused run path. Small sets exercise the hit paths, sets beyond the
// E-cache the miss/fill paths.
func benchApply(b *testing.B, slow bool, wsBytes uint64) {
	m := New(Enterprise5000(2))
	m.noFastApply = slow
	r := m.Alloc(wsBytes, 0)
	n := int32(wsBytes / 8)
	batch := mem.Batch{
		{Base: r.Base, Count: n, Stride: 8, Size: 8, Write: false},
		{Base: r.Base, Count: n, Stride: 8, Size: 8, Write: true},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Apply(0, 1, batch)
	}
	b.SetBytes(int64(2 * wsBytes))
}

func BenchmarkApplySweepL1Fused(b *testing.B)  { benchApply(b, false, 8<<10) }
func BenchmarkApplySweepL1Slow(b *testing.B)   { benchApply(b, true, 8<<10) }
func BenchmarkApplySweepL2Fused(b *testing.B)  { benchApply(b, false, 256<<10) }
func BenchmarkApplySweepL2Slow(b *testing.B)   { benchApply(b, true, 256<<10) }
func BenchmarkApplySweepMemFused(b *testing.B) { benchApply(b, false, 1<<20) }
func BenchmarkApplySweepMemSlow(b *testing.B)  { benchApply(b, true, 1<<20) }

// benchTouchCode measures one TouchCode of a codeBytes region on an
// 8-CPU E5000, fused or per line. The engine's default 2 KB region
// stays L1I-resident (the common dispatch); a 64 KB region overflows
// the 16 KB L1I, so every fetch misses it and hits the E-cache.
func benchTouchCode(b *testing.B, slow bool, codeBytes uint64) {
	m := New(Enterprise5000(8))
	m.noFastApply = slow
	code := m.Alloc(codeBytes, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TouchCode(0, 1, code)
	}
}

func BenchmarkTouchCodeL1IFused(b *testing.B) { benchTouchCode(b, false, 2<<10) }
func BenchmarkTouchCodeL1ISlow(b *testing.B)  { benchTouchCode(b, true, 2<<10) }
func BenchmarkTouchCodeL2Fused(b *testing.B)  { benchTouchCode(b, false, 64<<10) }
func BenchmarkTouchCodeL2Slow(b *testing.B)   { benchTouchCode(b, true, 64<<10) }
