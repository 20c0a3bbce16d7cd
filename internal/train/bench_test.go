package train

import (
	"testing"

	"naspipe/internal/data"
	"naspipe/internal/supernet"
)

// Training-plane benchmarks: the per-subnet step is the numeric hot path
// of every executor (sequential reference, replay verification, resume
// re-verification), so its per-op cost and allocation profile gate the
// whole system. Run with `go test -bench . -benchmem ./internal/train/`.

// benchCfg scales the numeric plane up from the tiny test default so the
// kernels, not the scheduler bookkeeping, dominate.
func benchCfg(space supernet.Space, dim int) Config {
	return Config{Space: space, Dim: dim, Seed: 7, BatchSize: 4, LR: 0.05, Dataset: data.WNMT}
}

// BenchmarkTrainSubnetStep measures one full subnet step (forward +
// backward + SGD over every block) against a live supernet at the
// default model dimension.
func BenchmarkTrainSubnetStep(b *testing.B) {
	sp := supernet.NLPc3.Scaled(8, 3)
	cfg := benchCfg(sp, 12)
	net := supernet.BuildNumeric(sp, cfg.Dim, cfg.Seed)
	subs := supernet.Sample(sp, 1, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StepOn(cfg, net, subs[i%len(subs)])
	}
}

// BenchmarkTrainSubnetStepDim64 is the same step with the model
// dimension scaled so the tensor kernels dominate.
func BenchmarkTrainSubnetStepDim64(b *testing.B) {
	sp := supernet.NLPc3.Scaled(8, 3)
	cfg := benchCfg(sp, 64)
	net := supernet.BuildNumeric(sp, cfg.Dim, cfg.Seed)
	subs := supernet.Sample(sp, 1, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StepOn(cfg, net, subs[i%len(subs)])
	}
}

// BenchmarkTrainSequential32 trains a 32-subnet stream end to end — the
// sequential reference run every verification pays for.
func BenchmarkTrainSequential32(b *testing.B) {
	sp := supernet.NLPc3.Scaled(8, 3)
	cfg := benchCfg(sp, 12)
	subs := supernet.Sample(sp, 1, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sequential(cfg, subs)
	}
}

// checksumSink keeps the benchmarked checksums live.
var checksumSink uint64

// benchCheckpointer is a checkpointer over NLP.c1 (3456 layers) at dim
// 8 whose stream is long enough for b.N one-subnet advances, primed
// past its first, full hash.
func benchCheckpointer(b *testing.B) *Checkpointer {
	sp := supernet.NLPc1
	c := NewCheckpointer(benchCfg(sp, 8), supernet.Sample(sp, 1, b.N+1))
	c.ChecksumAt(1)
	return c
}

// BenchmarkChecksumAt measures one checkpoint save's weight checksum
// the way a run pays for it: advance the sequential prefix by one
// subnet, then rehash only the layers that subnet changed.
func BenchmarkChecksumAt(b *testing.B) {
	c := benchCheckpointer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checksumSink = c.ChecksumAt(i + 2)
	}
}

// BenchmarkChecksumAtRef is BenchmarkChecksumAt with the full
// Numeric.Checksum recompute the incremental path replaces.
func BenchmarkChecksumAtRef(b *testing.B) {
	c := benchCheckpointer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.advance(i + 2)
		checksumSink = c.net.Checksum()
	}
}
