package main

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// per second: exponential inter-arrival gaps drawn from the seed. The same
// seed, rate and n give the same schedule.
func poissonSchedule(seed uint64, rate float64, n int) []time.Duration {
	r := rand.New(rand.NewPCG(seed, math.Float64bits(rate)))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += r.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// outcome classifies one request.
type outcome int

const (
	outcomeOK     outcome = iota
	outcomeError          // transport or decode error
	outcomeNon200         // the server answered with another status
	outcomeWrong          // 200, but the output differs from the check
)

// stepResult is one open-loop step at a fixed rate.
type stepResult struct {
	tally
	rate                  float64
	latMS                 []float64 // successful requests, from due time to response
	lagMS                 []float64 // how late the generator woke for requests it waited for
	backlog               int       // requests due but not yet sent when the last one fell due
	queueMS               []float64 // due time to send, for requests sent late
	wall                  time.Duration
	dueAt, pickAt, doneAt []time.Time
}

// runStep drives one open-loop step: request i is due at start+sched[i],
// whether or not earlier requests have finished. At most conns requests are
// in flight (one per connection); a request due while every connection is
// busy waits, and that wait counts in its latency because latency is timed
// from the due time. send performs request i and classifies its outcome.
func runStep(rate float64, sched []time.Duration, conns int, send func(i int) outcome) *stepResult {
	n := len(sched)
	r := &stepResult{
		rate:  rate,
		dueAt: make([]time.Time, n), pickAt: make([]time.Time, n), doneAt: make([]time.Time, n),
	}
	outs := make([]outcome, n)
	lag := make([]float64, n)
	slept := make([]bool, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(sched[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					slept[i] = true
					lag[i] = ms(time.Since(due))
				}
				r.dueAt[i], r.pickAt[i] = due, time.Now()
				outs[i] = send(i)
				r.doneAt[i] = time.Now()
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	lastDue := start.Add(sched[n-1])
	for i := 0; i < n; i++ {
		if slept[i] {
			r.lagMS = append(r.lagMS, lag[i])
		} else {
			r.queueMS = append(r.queueMS, ms(r.pickAt[i].Sub(r.dueAt[i])))
		}
		if r.pickAt[i].After(lastDue) && !r.dueAt[i].After(lastDue) {
			r.backlog++
		}
		if outs[i] == outcomeOK {
			r.latMS = append(r.latMS, ms(r.doneAt[i].Sub(r.dueAt[i])))
		}
		r.count(outs[i])
	}
	return r
}

// p99WithFailures is the step's p99 latency with failed requests counted as
// slower than any success (+Inf).
func (r *stepResult) p99WithFailures() float64 {
	all := append([]float64(nil), r.latMS...)
	for i := 0; i < r.failed(); i++ {
		all = append(all, math.Inf(1))
	}
	v, _ := percentile(all, 99)
	return v
}

// meets reports whether the step sustained its rate: no request failed,
// p99 (failures counted as over) within limitMS, the generator woke on time
// (lag p99 within a quarter of the limit) and the backlog of due-but-unsent
// requests at the end held no more than limitMS worth of arrivals.
func (r *stepResult) meets(limitMS float64, conns int) (bool, string) {
	lag, _ := percentile(r.lagMS, 99)
	maxBacklog := int(math.Max(float64(conns), r.rate*limitMS/1e3))
	switch {
	case r.failed() > 0:
		return false, "failures"
	case r.p99WithFailures() > limitMS:
		return false, "p99 over limit"
	case len(r.lagMS) > 0 && lag > limitMS/4:
		return false, "generator lag"
	case r.backlog > maxBacklog:
		return false, "growing backlog"
	}
	return true, "ok"
}

// runClosed keeps conns requests in flight back to back for d (and at
// least min requests): the saturation throughput. Latencies are not kept.
func runClosed(conns int, d time.Duration, min int, send func(i int) outcome) *stepResult {
	r := &stepResult{}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= min && time.Now().After(deadline) {
					return
				}
				o := send(i)
				mu.Lock()
				r.count(o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	return r
}
