package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/serve"
	"repro/pkg/neocpu"
)

func TestPercentileSampleRule(t *testing.T) {
	for p, want := range map[int]int{50: 20, 75: 40, 90: 100, 99: 1000} {
		if got := minSamples(p); got != want {
			t.Errorf("minSamples(%d) = %d, want %d", p, got, want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	if v, ok := percentile(xs, 90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(xs[:99], 90); ok {
		t.Error("p90 of 99 samples claims ten samples above it")
	}
	if v, ok := percentile(xs[:40], 75); !ok || v != 90 {
		t.Errorf("p75 of 61..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(xs, 99); ok {
		t.Error("p99 of 100 samples claims ten samples above it")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if r := spearman([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}); r != 1 {
		t.Errorf("spearman of monotone series = %v, want 1", r)
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []float64{0.001, 0.005, 0.01}
	counts := []float64{10, 90, 99, 100} // cumulative, +Inf last
	if q := histQuantile(bounds, counts, 0.5); q != 0.005 {
		t.Errorf("p50 = %v, want 0.005", q)
	}
	if q := histQuantile(bounds, counts, 0.99); q != 0.01 {
		t.Errorf("p99 = %v, want 0.01", q)
	}
	if q := histQuantile(bounds, counts, 1); q != 0.01 {
		t.Errorf("p100 in +Inf = %v, want the largest finite bound", q)
	}
}

func TestSameSeedSameInputsAndSchedule(t *testing.T) {
	a, b := poissonSchedule(7, 100, 1000), poissonSchedule(7, 100, 1000)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different arrival schedules")
	}
	if slices.Equal(a, poissonSchedule(8, 100, 1000)) {
		t.Fatal("different seeds gave the same arrival schedule")
	}
	// 1000 arrivals at 100/s span about 10 s.
	if span := a[len(a)-1]; span < 8*time.Second || span > 12*time.Second {
		t.Errorf("1000 arrivals at 100/s span %v", span)
	}
	if !slices.Equal(seededImage(7, 3, 64), seededImage(7, 3, 64)) {
		t.Fatal("same seed gave different inputs")
	}
	if slices.Equal(seededImage(7, 3, 64), seededImage(8, 3, 64)) {
		t.Fatal("different seeds gave the same input")
	}
}

func TestRefCheck(t *testing.T) {
	ref := []float32{0.1, 0.5, 0.2, 0.05, 0.3, 0.4, 0.01}
	if err := refCheck(slices.Clone(ref), ref, winogradTol); err != nil {
		t.Fatalf("identical output rejected: %v", err)
	}
	near := slices.Clone(ref)
	near[3] += 1e-5
	if err := refCheck(near, ref, winogradTol); err != nil {
		t.Fatalf("output within tolerance rejected: %v", err)
	}
	swapped := slices.Clone(ref)
	swapped[1], swapped[5] = ref[5], ref[1]
	if err := refCheck(swapped, ref, 1); err == nil {
		t.Fatal("reordered top-5 accepted")
	}
	far := slices.Clone(ref)
	far[6] += 0.01
	if err := refCheck(far, ref, winogradTol); err == nil {
		t.Fatal("relative error 2e-2 accepted")
	}
	nan := slices.Clone(ref)
	nan[0] = float32(math.NaN())
	if err := refCheck(nan, ref, winogradTol); err == nil {
		t.Fatal("NaN output accepted")
	}
}

// result parses the last line a report prints.
func result(t *testing.T, rep *report) (correct bool, attempted, failed int) {
	t.Helper()
	var buf bytes.Buffer
	rep.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, buf.String())
	}
	return out.Correct, out.Attempted, out.Failed
}

func TestCorruptedModelOutputCountsAsFailed(t *testing.T) {
	eng, err := neocpu.CompileGraph(models.TinyCNN(weightSeed), neocpu.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sess, err := eng.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	in := eng.NewInput()
	copy(in.Data, seededImage(1, 0, len(in.Data)))
	out, err := sess.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(out[0].Data)
	rep := &report{}
	closedLoop(context.Background(), rep, sess, in, want, time.Millisecond, minClosedLoop)
	if correct, attempted, failed := result(t, rep); !correct || failed != 0 || attempted < minClosedLoop {
		t.Fatalf("clean loop: correct=%v attempted=%d failed=%d", correct, attempted, failed)
	}

	corrupt := slices.Clone(want)
	corrupt[3] = math.Nextafter32(corrupt[3], 1) // one ulp
	rep = &report{}
	lat, _, _ := closedLoop(context.Background(), rep, sess, in, corrupt, time.Millisecond, minClosedLoop)
	correct, attempted, failed := result(t, rep)
	if correct || failed != attempted || rep.wrong != attempted || len(lat) != 0 {
		t.Fatalf("corrupted check: correct=%v attempted=%d failed=%d wrong=%d latencies=%d",
			correct, attempted, failed, rep.wrong, len(lat))
	}
}

func TestCorruptedResponseCountsAsFailed(t *testing.T) {
	s := &serveRun{expected: [][]float32{{0.25, 0.75}}}
	body := func(data []float32) []byte {
		b, err := json.Marshal(serve.InferResponse{ModelName: serveModel, Outputs: []serve.InferTensor{
			{Name: "output", Shape: []int{1, 2}, Datatype: "FP32", Data: data},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if o := s.checkBody(body([]float32{0.25, 0.75}), 0); o != outcomeOK {
		t.Fatalf("exact body: outcome %v", o)
	}
	if o := s.checkBody(body([]float32{0.25, math.Nextafter32(0.75, 1)}), 0); o != outcomeWrong {
		t.Fatalf("one-ulp body: outcome %v, want wrong", o)
	}
	if o := s.checkBody([]byte(`{"outputs": [`), 0); o != outcomeError {
		t.Fatalf("truncated body: outcome %v, want error", o)
	}

	// One wrong response in an open-loop step fails the step and the run.
	sched := poissonSchedule(1, 2000, 50)
	st := runStep(2000, sched, 2, func(i int) outcome {
		if i == 17 {
			return outcomeWrong
		}
		return outcomeOK
	})
	if st.attempted != 50 || st.ok() != 49 || st.failed() != 1 || st.wrong != 1 {
		t.Fatalf("step counts: sent %d ok %d failed %d wrong %d", st.attempted, st.ok(), st.failed(), st.wrong)
	}
	if ok, why := st.meets(p99LimitMS, 2); ok || why != "failures" {
		t.Fatalf("step with a wrong response meets the limit: %v %q", ok, why)
	}
	rep := &report{}
	rep.merge(st.tally)
	if correct, attempted, failed := result(t, rep); correct || attempted != 50 || failed != 1 {
		t.Fatalf("result: correct=%v attempted=%d failed=%d", correct, attempted, failed)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// Two requests due at once on one connection: the second waits for the
	// first, and that wait is part of its latency.
	sched := []time.Duration{time.Millisecond, time.Millisecond}
	st := runStep(1000, sched, 1, func(int) outcome {
		time.Sleep(20 * time.Millisecond)
		return outcomeOK
	})
	slices.Sort(st.latMS)
	if st.latMS[1] < 38 {
		t.Fatalf("second request latency %.1f ms excludes its wait for the connection", st.latMS[1])
	}
	if len(st.queueMS) != 1 {
		t.Fatalf("%d requests sent late, want 1", len(st.queueMS))
	}
}

func TestParseBuckets(t *testing.T) {
	text := `# TYPE neocpu_queue_wait_seconds histogram
neocpu_queue_wait_seconds_bucket{model="tiny-resnet",le="0.001"} 3
neocpu_queue_wait_seconds_bucket{model="tiny-resnet",le="0.01"} 8
neocpu_queue_wait_seconds_bucket{model="tiny-resnet",le="+Inf"} 9
neocpu_queue_wait_seconds_bucket{model="other",le="0.001"} 100
neocpu_queue_wait_seconds_sum{model="tiny-resnet"} 0.05
`
	st := &scrapeState{buckets: map[string][]float64{}, bounds: map[string][]float64{}}
	parseBuckets(text, "tiny-resnet", st)
	b, c := st.hist("neocpu_queue_wait_seconds")
	if !slices.Equal(b, []float64{0.001, 0.01}) || !slices.Equal(c, []float64{3, 8, 9}) {
		t.Fatalf("bounds %v counts %v", b, c)
	}
}
