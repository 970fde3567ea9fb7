package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

// OpTiming is one node's measured execution time from a profiled run.
type OpTiming struct {
	Node    *graph.Node
	Elapsed time.Duration
}

// Profile is the per-operator breakdown of one real inference. Timings
// holds one entry per program node, in program order. Nodes on inter-op and
// hybrid levels run concurrently, so their timings overlap and the sum of
// Timings may exceed Total; every single timing is at most Total.
type Profile struct {
	Total   time.Duration
	Timings []OpTiming
}

// ByKind aggregates the profile per operator kind, descending by time.
func (p *Profile) ByKind() []struct {
	Kind    graph.OpKind
	Elapsed time.Duration
	Count   int
} {
	agg := map[graph.OpKind]*struct {
		d time.Duration
		c int
	}{}
	for _, t := range p.Timings {
		e, ok := agg[t.Node.Op]
		if !ok {
			e = &struct {
				d time.Duration
				c int
			}{}
			agg[t.Node.Op] = e
		}
		e.d += t.Elapsed
		e.c++
	}
	out := make([]struct {
		Kind    graph.OpKind
		Elapsed time.Duration
		Count   int
	}, 0, len(agg))
	for k, e := range agg {
		out = append(out, struct {
			Kind    graph.OpKind
			Elapsed time.Duration
			Count   int
		}{k, e.d, e.c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Elapsed > out[j].Elapsed })
	return out
}

// String renders the aggregate breakdown.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total %v over %d ops\n", p.Total.Round(time.Microsecond), len(p.Timings))
	for _, e := range p.ByKind() {
		pct := 100 * float64(e.Elapsed) / float64(p.Total)
		fmt.Fprintf(&b, "  %-18s %10v  %5.1f%%  (%d ops)\n",
			e.Kind, e.Elapsed.Round(time.Microsecond), pct, e.Count)
	}
	return b.String()
}

// RunProfiled executes one inference like Run and returns the outputs with
// the per-operator profile. It runs the same compiled plan as Session.Run,
// per-level threading policies included, and reads the step times the
// executor records on every run.
func (m *Module) RunProfiled(input *tensor.Tensor) ([]*tensor.Tensor, *Profile, error) {
	s, err := m.NewSession()
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	outs, err := s.Run(context.TODO(), input)
	if err != nil {
		return nil, nil, err
	}
	prof := &Profile{Total: time.Since(start), Timings: make([]OpTiming, len(m.program))}
	for i, n := range m.program {
		prof.Timings[i] = OpTiming{Node: n, Elapsed: s.stepTimes[i]}
	}
	return outs, prof, nil
}

// MeasuredEvaluator returns a schedule.Evaluator that times schedules on the
// host instead of predicting them. Its scope is the cost model's: fp32, one
// serial thread. Each evaluation compiles the workload as an input→conv
// module with the schedule pinned through the regular layout and packing
// path, so the timed kernel is the one serving runs — compile-time packed
// weights, arena buffers, the schedule's own grain. The score is the minimum
// conv-step time over trials (at least one) Session runs, in seconds; a
// schedule the compile path rejects scores +Inf.
func MeasuredEvaluator(trials int) schedule.Evaluator {
	trials = max(trials, 1)
	return func(wl machine.ConvWorkload, s machine.ConvSchedule) float64 {
		g := graph.NewGraph("measure")
		in := g.AddNode(&graph.Node{Name: "data", Op: graph.OpInput, OutShape: graph.Shape{Dims: []int{1, wl.InC, wl.InH, wl.InW}}})
		wt := tensor.New(tensor.OIHW(), wl.OutC, wl.InC/wl.GroupCount(), wl.KH, wl.KW)
		wt.FillRandom(2, 1)
		conv := g.AddNode(&graph.Node{Name: "conv", Op: graph.OpConv2D, Inputs: []*graph.Node{in}, Weight: wt,
			Conv: ops.Conv2DAttrs{OutC: wl.OutC, KH: wl.KH, KW: wl.KW, StrideH: wl.StrideH, StrideW: wl.StrideW,
				PadH: wl.PadH, PadW: wl.PadW, Groups: wl.Groups}})
		g.Input, g.Outputs = in, []*graph.Node{conv}
		if graph.InferShapes(g) != nil || graph.AlterOpLayout(g, graph.LayoutPlan{conv: s}, true) != nil {
			return math.Inf(1)
		}
		// The target only feeds latency prediction; execution is one serial lane.
		m, err := finalizeModule(g, machine.IntelSkylakeC5(), OptGlobalSearch, nil, Options{Threads: 1, Backend: machine.BackendSerial})
		if err != nil {
			return math.Inf(1)
		}
		defer m.Close()
		sess, err := m.NewSession()
		if err != nil {
			return math.Inf(1)
		}
		input := tensor.New(tensor.NCHW(), 1, wl.InC, wl.InH, wl.InW)
		input.FillRandom(1, 1)
		best := math.Inf(1)
		for i := 0; i < trials; i++ {
			if _, err := sess.Run(context.TODO(), input); err != nil {
				return math.Inf(1)
			}
			best = min(best, sess.stepTimes[m.slot[conv]].Seconds())
		}
		return best
	}
}
