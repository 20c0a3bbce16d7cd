package csp

import (
	"fmt"
	"testing"

	"naspipe/internal/partition"
	"naspipe/internal/supernet"
)

// Admission-path benchmarks: Schedule is called on every stage-loop
// iteration of the concurrent executor, and ScheduleAssuming on every
// predictor lookahead — both sit on the per-task hot path, so their cost
// at large in-flight windows bounds pipeline throughput.

// benchInfos builds stage 0's view of n subnets sampled from the
// headline NLP space on a depth-stage balanced pipeline.
func benchInfos(tb testing.TB, n, depth int) []SubnetInfo {
	tb.Helper()
	sn := supernet.Build(supernet.NLPc1)
	subs := supernet.Sample(supernet.NLPc1, 3, n)
	infos := make([]SubnetInfo, len(subs))
	for i, sub := range subs {
		p := partition.BalancedForSubnet(sn, sub, depth)
		lo, hi := p.Blocks(0)
		var stageIDs []supernet.LayerID
		for blk := lo; blk < hi; blk++ {
			stageIDs = append(stageIDs, sn.Space.ID(blk, sub.Choices[blk]))
		}
		infos[i] = SubnetInfo{Seq: sub.Seq, AllLayers: sub.LayerIDs(sn.Space), StageLayers: stageIDs}
	}
	return infos
}

// benchScheduler builds a stage-0 scheduler with n registered subnets
// from the headline NLP space on an 8-stage pipeline.
func benchScheduler(tb testing.TB, n int) (*Scheduler, []int) {
	tb.Helper()
	s := New(0)
	for _, info := range benchInfos(tb, n, 8) {
		if err := s.AddSubnet(info); err != nil {
			tb.Fatal(err)
		}
	}
	queue := make([]int, n)
	for i := range queue {
		queue[i] = i
	}
	return s, queue
}

func BenchmarkScheduleWindow(b *testing.B) {
	for _, n := range []int{16, 96} {
		b.Run(fmt.Sprintf("window=%d", n), func(b *testing.B) {
			s, queue := benchScheduler(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Schedule(queue)
			}
		})
	}
}

func BenchmarkScheduleAssuming(b *testing.B) {
	for _, n := range []int{16, 96} {
		b.Run(fmt.Sprintf("window=%d", n), func(b *testing.B) {
			s, queue := benchScheduler(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ScheduleAssuming(queue, queue[0])
			}
		})
	}
}
