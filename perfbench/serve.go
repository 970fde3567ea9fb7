package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/pkg/neocpu"
)

const (
	serveModel = "tiny-resnet"
	// weightSeed is the program's default synthetic-weight seed (WithSeed).
	weightSeed = 42
	// serveInputs is how many distinct seeded inputs the requests cycle
	// through; each has its expected output computed once.
	serveInputs = 64
	// nominalRate is the low-load rate latency is reported at: well below
	// the knee (near 130 req/s on a 2-core host), so the figure tracks the
	// request path rather than queueing on a busy host.
	nominalRate = 25.0 // req/s
	p99LimitMS  = 100.0
	// serveSetupReps is higher than setupReps: a set-up takes ~20 ms, so
	// more of them cost nothing and steady the median.
	serveSetupReps = 7
	ladderStart    = 100.0
	ladderFloor    = 50.0 // tried only when ladderStart misses the limit
)

// ladderUp is the rate ladder above ladderStart, climbed until a step
// misses the limit.
var ladderUp = []float64{150, 200, 250}

// minStepRequests is the fewest requests per step: enough for a p99 with
// ten samples above it.
var minStepRequests = minSamples(99)

// rig is one booted repository server on a loopback port.
type rig struct {
	hs     *http.Server
	srv    *serve.Server
	url    string
	bundle string
	served chan struct{} // closed when the HTTP serve loop has returned
}

// close stops the HTTP server, waits for its serve loop, then drains and
// closes the repository.
func (r *rig) close() {
	r.hs.Close()
	<-r.served
	r.srv.Close()
}

// serveRun carries one serve workload run's state.
type serveRun struct {
	c        *runConfig
	rep      *report
	client   *http.Client
	bodies   [][]byte    // pre-encoded infer requests, one per seeded input
	inputs   [][]float32 // the seeded inputs
	expected [][]float32 // Session.Run outputs on a module loaded from the served bundle

	compileMS, loadMS []float64
	lastEngine        *neocpu.Engine // the last set-up's compiled engine (search and graph stats)
}

// runServe is the serve-tiny-resnet workload: tiny-resnet is compiled,
// saved as a bundle and served from a repository directory with the serving
// defaults (one-thread serial sessions, 2 ms straggler window, batch
// sharding), as neocpu-serve -repo does. Load is a seeded open-loop Poisson
// schedule of kserve-v2 JSON infer requests over at most nproc loopback
// connections: a nominal-rate step, then the rate ladder.
func runServe(ctx context.Context, c *runConfig) (*report, error) {
	s := &serveRun{c: c, rep: &report{}}
	defer func() {
		if s.lastEngine != nil {
			s.lastEngine.Close()
		}
	}()
	tr := &http.Transport{
		MaxConnsPerHost:     c.threads,
		MaxIdleConnsPerHost: c.threads,
		DisableCompression:  true,
	}
	defer tr.CloseIdleConnections()
	s.client = &http.Client{Transport: tr, Timeout: time.Minute}
	for k := 0; k < serveInputs; k++ {
		in := seededImage(c.seed, uint64(k), 3*32*32)
		body, err := json.Marshal(serve.InferRequest{Inputs: []serve.InferTensor{
			{Name: "input", Shape: []int{1, 3, 32, 32}, Datatype: "FP32", Data: in},
		}})
		if err != nil {
			return nil, err
		}
		s.inputs = append(s.inputs, in)
		s.bodies = append(s.bodies, body)
	}

	var (
		setups []float64
		firsts [][]byte
		server *rig
	)
	for i := 0; i < serveSetupReps; i++ {
		debug.FreeOSMemory()
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		r, first, err := s.setup(ctx, i, start)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		firsts = append(firsts, first)
		if i < serveSetupReps-1 {
			r.close()
			tr.CloseIdleConnections()
		} else {
			server = r
		}
	}
	defer server.close()

	// The check: Session.Run on a module loaded from the served bundle,
	// outside setup_s.
	ref, refSess, newSessMS, err := s.reference(ctx, server.bundle)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	for _, body := range firsts {
		s.rep.count(s.checkBody(body, 0))
	}

	if c.tr != nil {
		return s.traced(ctx, server, ref, refSess, newSessMS)
	}

	nominal := s.step(ctx, server, nominalRate, s.nominalRequests(), 0)
	p50, _ := percentile(nominal.latMS, 50)
	p75, _ := percentile(nominal.latMS, 75)
	s.rep.add("latency_p50_ms", "ms", p50, len(nominal.latMS))
	s.rep.add("latency_p75_ms", "ms", p75, len(nominal.latMS))
	s.rep.add("setup_s", "s", median(setups), len(setups))
	s.saturate(ctx, server)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	s.rep.add("peak_rss_mb", "MB", rss, 1)
	return s.rep, nil
}

// nominalRequests sizes the nominal step to the run's seconds, and at
// least minClosedLoop requests so latency_p75_ms has ten samples above it.
func (s *serveRun) nominalRequests() int {
	return max(minClosedLoop, int(nominalRate*s.c.seconds.Seconds()))
}

// saturate keeps every connection busy back to back for a quarter of the
// run and adds throughput_rps: checked 200 responses per second.
func (s *serveRun) saturate(ctx context.Context, r *rig) {
	st := runClosed(s.c.threads, s.c.seconds/4, minClosedLoop, func(j int) outcome {
		return s.send(ctx, r, j)
	})
	s.rep.merge(st.tally)
	s.rep.note("saturation, %d connections back to back: sent %d ok %d failed %d in %.2fs",
		s.c.threads, st.attempted, st.ok(), st.failed(), st.wall.Seconds())
	s.rep.add("throughput_rps", "1/s", float64(st.ok())/st.wall.Seconds(), st.ok())
}

// ladder climbs the rate ladder from ladderStart until a step misses the
// p99 limit (or, if ladderStart misses, tries ladderFloor) and adds
// serve.goodput_rps, the highest rate that met it, and
// serve.latency_p99_ms, the p99 at ladderStart.
func (s *serveRun) ladder(ctx context.Context, r *rig) {
	start := s.step(ctx, r, ladderStart, minStepRequests, 1)
	s.rep.add("serve.latency_p99_ms", "ms", start.p99WithFailures(), start.attempted)
	goodput, steps := 0.0, 1
	if ok, _ := start.meets(p99LimitMS, s.c.threads); ok {
		goodput = ladderStart
		for _, rate := range ladderUp {
			steps++
			if ok, _ := s.step(ctx, r, rate, minStepRequests, steps).meets(p99LimitMS, s.c.threads); !ok {
				break
			}
			goodput = rate
		}
	} else if ok, _ := s.step(ctx, r, ladderFloor, minStepRequests, 2).meets(p99LimitMS, s.c.threads); ok {
		goodput, steps = ladderFloor, 2
	}
	s.rep.add("serve.goodput_rps", "1/s", goodput, steps)
}

// setup boots one server from nothing and sends the first request: compile,
// bundle save, repository load, listen, readiness, first inference. It
// returns the server and the first response body (checked later).
func (s *serveRun) setup(ctx context.Context, i int, start time.Time) (*rig, []byte, error) {
	tr := s.c.tr
	root := tr.begin("setup", 0, 0, start)
	defer func() { tr.end(root, time.Now()) }()
	t0 := time.Now()
	var eng *neocpu.Engine
	err := tr.around("core.compile", root, func() (err error) {
		eng, err = neocpu.CompileGraph(models.TinyResNet(weightSeed), neocpu.WithThreads(s.c.threads))
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	s.compileMS = append(s.compileMS, ms(time.Since(t0)))
	if s.lastEngine != nil {
		s.lastEngine.Close()
	}
	s.lastEngine = eng
	dir := filepath.Join(s.c.tmp, fmt.Sprintf("repo-%d", i))
	bundle := filepath.Join(dir, serveModel+serve.BundleExt)
	if err := tr.around("artifact.save", root, func() error {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(bundle)
		if err != nil {
			return err
		}
		if err := eng.SaveBundle(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}); err != nil {
		return nil, nil, err
	}
	reg, err := serve.NewRegistry(
		&serve.DirSource{Dir: dir, Resolve: models.ResolveGraph},
		serve.RegistryConfig{LoadOptions: core.Options{Threads: 1, Backend: machine.BackendSerial}},
	)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	if err := tr.around("artifact.load", root, func() error { return reg.Load(serveModel) }); err != nil {
		reg.Close()
		return nil, nil, err
	}
	s.loadMS = append(s.loadMS, ms(time.Since(t1)))
	srv, err := serve.NewRepository(reg)
	if err != nil {
		reg.Close()
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	r := &rig{hs: &http.Server{Handler: srv.Handler()}, srv: srv, url: "http://" + ln.Addr().String(),
		bundle: bundle, served: make(chan struct{})}
	go func() {
		defer close(r.served)
		// Serve returns http.ErrServerClosed once close stops it; a
		// failure before that shows as a failed readiness probe.
		_ = r.hs.Serve(ln)
	}()
	if err := tr.around("serve.ready", root, func() error { return s.waitReady(r) }); err != nil {
		r.close()
		return nil, nil, err
	}
	var first []byte
	if err := tr.around("serve.first_request", root, func() (err error) {
		var code int
		code, first, err = s.post(ctx, r, s.bodies[0])
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("first request: status %d: %s", code, first)
		}
		return err
	}); err != nil {
		r.close()
		return nil, nil, err
	}
	return r, first, nil
}

func (s *serveRun) waitReady(r *rig) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.client.Get(r.url + "/v2/health/ready")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// post sends one infer request and returns the status and body.
func (s *serveRun) post(ctx context.Context, r *rig, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url+"/v2/models/"+serveModel+"/infer", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// reference loads the served bundle into a serial engine and computes the
// expected output of every seeded input with Session.Run.
func (s *serveRun) reference(ctx context.Context, bundle string) (*neocpu.Engine, *neocpu.Session, float64, error) {
	f, err := os.Open(bundle)
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()
	eng, err := neocpu.LoadBundle(f, neocpu.WithBackend(neocpu.BackendSerial))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("reference: %w", err)
	}
	t0 := time.Now()
	sess, err := eng.NewSession()
	if err != nil {
		eng.Close()
		return nil, nil, 0, err
	}
	newSessMS := ms(time.Since(t0))
	in := eng.NewInput()
	for _, x := range s.inputs {
		copy(in.Data, x)
		out, err := sess.Run(ctx, in)
		if err != nil {
			eng.Close()
			return nil, nil, 0, fmt.Errorf("reference: %w", err)
		}
		s.expected = append(s.expected, append([]float32(nil), out[0].Data...))
	}
	return eng, sess, newSessMS, nil
}

// checkBody classifies a 200 body against the expected output of input k,
// bit for bit.
func (s *serveRun) checkBody(body []byte, k int) outcome {
	var resp serve.InferResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Outputs) != 1 {
		return outcomeError
	}
	if !bitEqual(resp.Outputs[0].Data, s.expected[k]) {
		return outcomeWrong
	}
	return outcomeOK
}

// send performs request j (input j mod serveInputs) and checks the answer.
func (s *serveRun) send(ctx context.Context, r *rig, j int) outcome {
	k := j % serveInputs
	code, body, err := s.post(ctx, r, s.bodies[k])
	switch {
	case err != nil:
		return outcomeError
	case code != http.StatusOK:
		return outcomeNon200
	}
	return s.checkBody(body, k)
}

// step runs one open-loop step of n requests at rate, counts it in the
// tally and logs it. Step index i decorrelates the schedules of one run.
func (s *serveRun) step(ctx context.Context, r *rig, rate float64, n, i int) *stepResult {
	sched := poissonSchedule(s.c.seed+uint64(i)<<32, rate, n)
	st := runStep(rate, sched, s.c.threads, func(j int) outcome { return s.send(ctx, r, j) })
	s.rep.merge(st.tally)
	p50, _ := percentile(st.latMS, 50)
	lag, _ := percentile(st.lagMS, 99)
	ok, why := st.meets(p99LimitMS, s.c.threads)
	verdict := "meets the limit"
	if !ok {
		verdict = "misses the limit (" + why + ")"
	}
	s.rep.note("step %3.0f req/s: sent %d ok %d failed %d, p50 %.2f ms, p99 %.2f ms (n=%d), generator lag p99 %.2f ms (n=%d), sent late %d, end backlog %d, wall %.2fs: %s",
		rate, st.attempted, st.ok(), st.failed(), p50, st.p99WithFailures(), st.attempted, lag, len(st.lagMS), len(st.queueMS), st.backlog, st.wall.Seconds(), verdict)
	return st
}

// traced is the serve workload's traced run: the compute floor (Session.Run
// on the loaded bundle, one caller), a profiled breakdown of that module,
// then the nominal step with request spans and /metrics and /v2/stats
// deltas around it.
func (s *serveRun) traced(ctx context.Context, r *rig, ref *neocpu.Engine, sess *neocpu.Session, newSessMS float64) (*report, error) {
	c, rep := s.c, s.rep
	in := ref.NewInput()
	var floor []float64
	for j := 0; j < 200; j++ {
		k := j % serveInputs
		copy(in.Data, s.inputs[k])
		t0 := time.Now()
		out, err := sess.Run(ctx, in)
		floor = append(floor, ms(time.Since(t0)))
		rep.count(checkOutput(out, err, s.expected[k]))
	}
	sessionRun := median(floor)
	var profs []*neocpu.Profile
	for j := 0; j < 50; j++ {
		copy(in.Data, s.inputs[0])
		t0 := time.Now()
		out, prof, err := ref.RunProfiled(in)
		rep.count(checkOutput(out, err, s.expected[0]))
		if err != nil {
			continue
		}
		profileSpans(c.tr, prof, t0, time.Now())
		profs = append(profs, prof)
	}
	rep.layers = addLayerMetrics(rep, ref, profs, machine.BackendSerial, sessionRun)

	before, err := s.scrape(r)
	if err != nil {
		return nil, err
	}
	st := s.step(ctx, r, nominalRate, s.nominalRequests(), 0)
	after, err := s.scrape(r)
	if err != nil {
		return nil, err
	}
	for j := range st.dueAt {
		id := c.tr.record("serve.request", 0, int64(j+1), st.dueAt[j], st.doneAt[j])
		c.tr.record("serve.http", id, int64(j+1), st.pickAt[j], st.doneAt[j])
	}
	p50, _ := percentile(st.latMS, 50)
	lag, _ := percentile(st.lagMS, 99)

	rep.add("core.compile_ms", "ms", median(s.compileMS), len(s.compileMS))
	addCompileLayers(rep, s.lastEngine)
	rep.add("core.new_session_ms", "ms", newSessMS, 1)
	rep.add("core.arena_mb", "MB", float64(sess.ArenaBytes())/(1<<20), 1)
	rep.add("artifact.load_ms", "ms", median(s.loadMS), len(s.loadMS))
	rep.add("core.session_run_ms", "ms", sessionRun, len(floor))
	rep.add("serve.outside_ms", "ms", p50-sessionRun, len(st.latMS))
	d := after.minus(before)
	qb, qc := d.hist("neocpu_queue_wait_seconds")
	rep.add("serve.queue_wait_p50_ms", "ms", 1e3*histQuantile(qb, qc, 0.50), int(qc[len(qc)-1]))
	rep.add("serve.queue_wait_p99_ms", "ms", 1e3*histQuantile(qb, qc, 0.99), int(qc[len(qc)-1]))
	bb, bc := d.hist("neocpu_batch_duration_seconds")
	rep.add("serve.batch_p50_ms", "ms", 1e3*histQuantile(bb, bc, 0.50), int(bc[len(bc)-1]))
	batches := float64(d.stats.Batch.Batches)
	lanes := batches - float64(d.stats.Batch.ShardedBatches) + float64(d.stats.Batch.Shards)
	rep.add("serve.batch_size_mean", "count", float64(d.stats.Batch.Items)/batches, int(batches))
	rep.add("serve.shard_fanout", "count", lanes/batches, int(batches))
	rep.add("serve.busy_share", "ratio", d.stats.Pool.Busy.Seconds()/(st.wall.Seconds()*float64(c.threads)), 1)
	rep.add("serve.rejected", "count", float64(d.stats.Batch.Rejected), 1)
	rep.add("serve.shed", "count", float64(d.stats.Batch.Shed), 1)
	rep.add("driver.lag_p99_ms", "ms", lag, len(st.lagMS))
	s.ladder(ctx, r)
	rep.note("serve.* histogram quantiles are bucket upper bounds of the server's own histograms (resolution of serve/metrics.DurationBuckets)")
	return rep, nil
}

// scrapeState is one snapshot of the server's /metrics text and the served
// model's /v2/stats entry.
type scrapeState struct {
	buckets map[string][]float64 // family -> cumulative counts, +Inf last
	bounds  map[string][]float64
	stats   serve.ModelStats
}

func (s *serveRun) scrape(r *rig) (*scrapeState, error) {
	get := func(path string) ([]byte, error) {
		resp, err := s.client.Get(r.url + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	text, err := get("/metrics")
	if err != nil {
		return nil, err
	}
	raw, err := get("/v2/stats")
	if err != nil {
		return nil, err
	}
	var rs serve.RegistryStats
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, err
	}
	st := &scrapeState{buckets: map[string][]float64{}, bounds: map[string][]float64{}}
	for _, m := range rs.Models {
		if m.Model == serveModel {
			st.stats = m
		}
	}
	parseBuckets(string(text), serveModel, st)
	return st, nil
}

// parseBuckets reads the model's histogram bucket lines out of Prometheus
// text exposition, e.g.
//
//	neocpu_queue_wait_seconds_bucket{model="tiny-resnet",le="0.005"} 17
func parseBuckets(text, model string, st *scrapeState) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		fam, rest, ok := strings.Cut(line, "_bucket{")
		if !ok || !strings.Contains(rest, `model="`+model+`"`) {
			continue
		}
		_, le, ok := strings.Cut(rest, `le="`)
		if !ok {
			continue
		}
		le, tail, _ := strings.Cut(le, `"`)
		fields := strings.Fields(tail)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			st.bounds[fam] = append(st.bounds[fam], b)
		}
		st.buckets[fam] = append(st.buckets[fam], v)
	}
}

// minus is the change from an earlier snapshot to this one.
func (a *scrapeState) minus(b *scrapeState) *scrapeState {
	d := &scrapeState{buckets: map[string][]float64{}, bounds: a.bounds, stats: a.stats}
	for fam, counts := range a.buckets {
		prev := b.buckets[fam]
		out := make([]float64, len(counts))
		for i := range counts {
			out[i] = counts[i]
			if i < len(prev) {
				out[i] -= prev[i]
			}
		}
		d.buckets[fam] = out
	}
	p, q := &d.stats, b.stats
	p.Pool.Busy -= q.Pool.Busy
	p.Batch.Batches -= q.Batch.Batches
	p.Batch.Items -= q.Batch.Items
	p.Batch.ShardedBatches -= q.Batch.ShardedBatches
	p.Batch.Shards -= q.Batch.Shards
	p.Batch.Rejected -= q.Batch.Rejected
	p.Batch.Shed -= q.Batch.Shed
	return d
}

// hist returns a family's bounds and cumulative counts, with one zero
// bucket when the family is missing.
func (a *scrapeState) hist(fam string) ([]float64, []float64) {
	if c := a.buckets[fam]; len(c) > 0 {
		return a.bounds[fam], c
	}
	return []float64{0}, []float64{0, 0}
}
