package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/tensor"
	"repro/pkg/neocpu"
)

// modelInputShape is the NCHW input of the full-size registry models.
var modelInputShape = []int{1, 3, 224, 224}

// minClosedLoop is the fewest timed inferences a closed-loop run takes, so
// that latency_p75_ms keeps ten samples above it.
var minClosedLoop = minSamples(75)

// runModel is the resnet18-b1 / mobilenet-b1 workload: one closed-loop
// caller runs Session.Run back to back on a seeded image at batch 1.
func runModel(ctx context.Context, c *runConfig, model string) (*report, error) {
	rep := &report{}
	in := tensor.New(tensor.NCHW(), modelInputShape...)
	copy(in.Data, seededImage(c.seed, 0, len(in.Data)))

	// Set-up, several times from nothing: compile through the program's
	// defaults at nproc threads, create a session, run the first inference.
	// Every set-up's first output must equal the others bit for bit; the
	// first is checked against the reference engine at the end.
	var (
		setups  []float64
		compile []float64
		newSess []float64
		eng     *neocpu.Engine
		sess    *neocpu.Session
		first   []float32
	)
	for i := 0; i < setupReps; i++ {
		debug.FreeOSMemory()
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		var (
			e   *neocpu.Engine
			s   *neocpu.Session
			out []*tensor.Tensor
		)
		root := c.tr.begin("setup", 0, 0, start)
		t0 := time.Now()
		err := c.tr.around("core.compile", root, func() (err error) {
			e, err = neocpu.Compile(model, neocpu.WithThreads(c.threads))
			return err
		})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := c.tr.around("core.new_session", root, func() (err error) {
			s, err = e.NewSession()
			return err
		}); err != nil {
			e.Close()
			return nil, err
		}
		t2 := time.Now()
		err = c.tr.around("core.session_run", root, func() (err error) {
			out, err = s.Run(ctx, in)
			return err
		})
		c.tr.end(root, time.Now())
		setups = append(setups, time.Since(start).Seconds())
		compile = append(compile, ms(t1.Sub(t0)))
		newSess = append(newSess, ms(t2.Sub(t1)))
		if err == nil && first == nil {
			first = append([]float32(nil), out[0].Data...)
		}
		rep.count(checkOutput(out, err, first))
		if i < setupReps-1 {
			e.Close()
		} else {
			eng, sess = e, s
		}
	}
	if first == nil {
		return nil, fmt.Errorf("no set-up produced an output")
	}
	defer func() {
		if eng != nil {
			eng.Close()
		}
	}()

	if c.tr != nil {
		tracedModel(ctx, c, rep, eng, sess, in, first)
		rep.add("core.compile_ms", "ms", median(compile), len(compile))
		rep.add("core.new_session_ms", "ms", median(newSess), len(newSess))
		rep.add("core.arena_mb", "MB", float64(sess.ArenaBytes())/(1<<20), 1)
		addCompileLayers(rep, eng)
		addIdleServeLayers(rep)
	} else {
		lat, _, wall := closedLoop(ctx, rep, sess, in, first, c.seconds, minClosedLoop)
		rep.add("throughput_rps", "1/s", float64(len(lat))/wall.Seconds(), len(lat))
		p50, _ := percentile(lat, 50)
		p75, _ := percentile(lat, 75)
		rep.add("latency_p50_ms", "ms", p50, len(lat))
		rep.add("latency_p75_ms", "ms", p75, len(lat))
		rep.add("setup_s", "s", median(setups), len(setups))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.add("peak_rss_mb", "MB", rss, 1)
	}
	eng.Close()
	eng = nil

	// The reference: plain NCHW kernels (LevelBaseline), built after the
	// measurement so it counts in neither setup_s nor peak_rss_mb.
	ref, err := neocpu.Compile(model, neocpu.WithThreads(c.threads), neocpu.WithOptLevel(neocpu.LevelBaseline))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	defer ref.Close()
	want, err := ref.Run(in)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if err := refCheck(first, want[0].Data, winogradTol); err != nil {
		// Every counted output equalled the first bit for bit, so all of
		// them are wrong.
		rep.note("output differs from the %s reference: %v", neocpu.LevelBaseline, err)
		rep.wrong = rep.attempted - rep.errors
	} else {
		rep.note("output matches the %s reference: top-5 %v, max relative error %.2g (bound %.0e)",
			neocpu.LevelBaseline, topK(first, 5), maxRelErr(first, want[0].Data), winogradTol)
	}
	return rep, nil
}

// closedLoop times Session.Run back to back for d (and at least min
// times), checking each output bit for bit against want. It returns the
// successful latencies and the gaps between one call and the next, in ms,
// and the loop's wall time.
func closedLoop(ctx context.Context, rep *report, sess *neocpu.Session, in *tensor.Tensor, want []float32, d time.Duration, min int) (lat, gaps []float64, wall time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var prevEnd time.Time
	for n := 0; time.Now().Before(deadline) || n < min; n++ {
		t0 := time.Now()
		if n > 0 {
			gaps = append(gaps, ms(t0.Sub(prevEnd)))
		}
		out, err := sess.Run(ctx, in)
		took := time.Since(t0)
		o := checkOutput(out, err, want)
		rep.count(o)
		if o == outcomeOK {
			lat = append(lat, ms(took))
		}
		prevEnd = time.Now()
	}
	return lat, gaps, time.Since(start)
}

// tracedModel is the traced variant of the measured phase: half the run
// times plain Session.Run (the untraced p50 the overhead ratio divides by),
// half runs Engine.RunProfiled, whose per-node timings become child spans
// and the ops/machine per-layer metrics.
func tracedModel(ctx context.Context, c *runConfig, rep *report, eng *neocpu.Engine, sess *neocpu.Session, in *tensor.Tensor, want []float32) {
	untraced, gaps, _ := closedLoop(ctx, rep, sess, in, want, c.seconds/2, 5)
	var profs []*neocpu.Profile
	deadline := time.Now().Add(c.seconds / 2)
	for n := 0; time.Now().Before(deadline) || n < 3; n++ {
		t0 := time.Now()
		out, prof, err := eng.RunProfiled(in)
		t1 := time.Now()
		rep.count(checkOutput(out, err, want))
		if err != nil {
			continue
		}
		profileSpans(c.tr, prof, t0, t1)
		profs = append(profs, prof)
	}
	backend := machine.BackendPool
	if eng.Threads() <= 1 {
		backend = machine.BackendSerial
	}
	rep.layers = addLayerMetrics(rep, eng, profs, backend, median(untraced))
	rep.add("core.session_run_ms", "ms", median(untraced), len(untraced))
	lag, _ := percentile(gaps, 99)
	rep.add("driver.lag_p99_ms", "ms", lag, len(gaps))
	rep.note("RunProfiled walks every dependency level sequentially with intra-op kernels, so hybrid levels (%d in this plan) run in series when profiled", eng.PlanStats().HybridLevels)
}

// profileSpans records one profiled inference as a parent span with one
// child per executed node, laid end to end from the inference start.
func profileSpans(tr *tracer, prof *neocpu.Profile, start, end time.Time) {
	if tr == nil {
		return
	}
	parent := tr.record("core.run_profiled", 0, 0, start, end)
	at := start
	for _, t := range prof.Timings {
		tr.record("node:"+t.Node.Name, parent, 0, at, at.Add(t.Elapsed))
		at = at.Add(t.Elapsed)
	}
}

// convFamilies are the conv kernel families the ops metrics split by.
var convFamilies = []string{"winograd", "direct3x3", "direct1x1", "directkxk", "depthwise"}

// convFamily names the kernel a compiled convolution runs, from its
// schedule and workload.
func convFamily(n *graph.Node) string {
	wl := graph.ConvWorkload(n)
	switch {
	case n.Sched.Algorithm == machine.AlgoWinograd && n.Sched.Layout.Kind == tensor.LayoutNCHWc:
		return "winograd"
	case wl.Depthwise():
		return "depthwise"
	case wl.KH == 3 && wl.KW == 3:
		return "direct3x3"
	case wl.KH == 1 && wl.KW == 1:
		return "direct1x1"
	default:
		return "directkxk"
	}
}

// addLayerMetrics derives the ops.*, machine.* and trace.* per-layer
// metrics from profiled runs: each node's self-time is its mean over the
// runs, so the family times add up to the mean profiled total; the cost
// model is asked for each conv at the engine's threads and backend. It
// returns the per-node table.
func addLayerMetrics(rep *report, eng *neocpu.Engine, profs []*neocpu.Profile, backend machine.ThreadBackend, untracedMS float64) []layerRow {
	perNode := map[*graph.Node][]float64{}
	var order []*graph.Node
	var totals []float64
	for _, p := range profs {
		totals = append(totals, ms(p.Total))
		for _, t := range p.Timings {
			if _, seen := perNode[t.Node]; !seen {
				order = append(order, t.Node)
			}
			perNode[t.Node] = append(perNode[t.Node], ms(t.Elapsed))
		}
	}
	famMS := map[string]float64{}
	famFLOPs := map[string]float64{}
	famConvs := map[string]int{}
	var rows []layerRow
	var measured, predicted, ratios []float64
	sum := 0.0
	for _, n := range order {
		self := mean(perNode[n])
		sum += self
		row := layerRow{Node: n.Name, Op: n.Op.String(), Family: "other", SelfMS: self}
		if n.Op == graph.OpConv2D {
			wl := graph.ConvWorkload(n)
			fam := convFamily(n)
			pred := eng.Target().ConvTime(wl, n.Sched, eng.Threads(), backend, 1) * 1e3
			row.Family, row.Schedule = fam, n.Sched.String()
			row.GFLOPs = wl.FLOPs() / 1e9
			row.PredMS, row.PredRatio = pred, self/pred
			famMS[fam] += self
			famFLOPs[fam] += wl.FLOPs()
			famConvs[fam]++
			measured = append(measured, self)
			predicted = append(predicted, pred)
			ratios = append(ratios, self/pred)
		} else {
			famMS["other"] += self
		}
		rows = append(rows, row)
	}
	for _, f := range convFamilies {
		gflops := 0.0
		if famMS[f] > 0 {
			gflops = famFLOPs[f] / (famMS[f] / 1e3) / 1e9
		}
		rep.add("ops."+f+"_ms", "ms", famMS[f], len(profs))
		rep.add("ops."+f+"_gflops", "GFLOP/s", gflops, len(profs))
		rep.add("ops."+f+"_convs", "count", float64(famConvs[f]), 1)
	}
	rep.add("ops.other_ms", "ms", famMS["other"], len(profs))
	rep.add("machine.pred_ratio_p50", "ratio", median(ratios), len(ratios))
	rep.add("machine.pred_spearman", "rho", spearman(measured, predicted), len(measured))
	rep.add("trace.overhead_ratio", "ratio", median(totals)/untracedMS, len(totals))
	total := mean(totals)
	rep.add("trace.ops_share", "ratio", sum/total, len(totals))
	rep.note("GFLOP/s counts computed FLOPs of a direct convolution (2*OH*OW*OC*IC/groups*KH*KW), also for winograd, which executes fewer multiplies")
	rep.note("per-layer self-times add up to %.1f%% of the mean profiled total %.2f ms (%d profiled runs)", 100*sum/total, total, len(profs))
	return rows
}

// addCompileLayers reports the search and graph layers of a compiled
// engine. The search figures are 0 for engines compiled below
// LevelGlobalSearch, which run no search.
func addCompileLayers(rep *report, eng *neocpu.Engine) {
	st, _ := eng.SearchStats()
	rep.add("search.ms", "ms", ms(st.Elapsed), 1)
	rep.add("search.states", "count", float64(st.States), 1)
	rep.add("graph.transforms", "count", float64(eng.TransformCount()), 1)
}

// addIdleServeLayers reports the serving layers as idle on workloads that
// do not serve: they do no work there.
func addIdleServeLayers(rep *report) {
	for _, m := range []struct{ name, unit string }{
		{"artifact.load_ms", "ms"}, {"serve.outside_ms", "ms"},
		{"serve.queue_wait_p50_ms", "ms"}, {"serve.queue_wait_p99_ms", "ms"}, {"serve.batch_p50_ms", "ms"},
		{"serve.batch_size_mean", "count"}, {"serve.shard_fanout", "count"}, {"serve.busy_share", "ratio"},
		{"serve.rejected", "count"}, {"serve.shed", "count"},
		{"serve.goodput_rps", "1/s"}, {"serve.latency_p99_ms", "ms"},
	} {
		rep.add(m.name, m.unit, 0, 0)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
