// Quantized inference demo — the paper's Section 6 future-work item
// ("handling model inference in quantized values (e.g. INT8)") built out at
// the operation level: a one-convolution model is compiled in fp32 and in
// symmetric INT8 with per-channel weight scales, run through the profiled
// executor, and compared for numerical agreement on the real Go kernels and
// predicted speedups on the modeled targets.
//
//	go run ./examples/quantized
package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/tensor"
	"repro/pkg/neocpu"
)

// convModel is a mid-network convolution: 64x28x28 -> 64, 3x3.
func convModel() *graph.Graph {
	b := graph.NewBuilder("conv", 2)
	return b.Finish(b.Conv(b.Input(64, 28, 28), 64, 3, 1, 1))
}

// runConv compiles the convolution model on one serial lane and returns its
// output and the convolution's time from a profiled run.
func runConv(in *tensor.Tensor, opts ...neocpu.Option) (*tensor.Tensor, time.Duration) {
	opts = append(opts, neocpu.WithOptLevel(neocpu.LevelTransformElim), neocpu.WithBackend(neocpu.BackendSerial))
	engine, err := neocpu.CompileGraph(convModel(), opts...)
	if err != nil {
		panic(err)
	}
	defer engine.Close()
	outs, prof, err := engine.RunProfiled(in)
	if err != nil {
		panic(err)
	}
	var conv time.Duration
	for _, t := range prof.Timings {
		if t.Node.Op == graph.OpConv2D {
			conv += t.Elapsed
		}
	}
	return outs[0], conv
}

func main() {
	in := tensor.New(tensor.NCHW(), 1, 64, 28, 28)
	in.FillRandom(1, 1)
	// fp32 blocked reference, then the INT8 path: activations quantized per
	// inference, weights per channel at compile time, int32 accumulation,
	// rescaled output.
	a, f32Time := runConv(in)
	b, i8Time := runConv(in, neocpu.WithInt8())

	// Agreement.
	var ref2, err2 float64
	for i := range a.Data {
		d := float64(a.Data[i] - b.Data[i])
		err2 += d * d
		ref2 += float64(a.Data[i]) * float64(a.Data[i])
	}
	fmt.Printf("fp32 conv step: %v   int8 conv step: %v (host, scalar Go; int8 includes activation quantization)\n",
		f32Time.Round(time.Microsecond), i8Time.Round(time.Microsecond))
	fmt.Printf("int8 relative RMS error vs fp32: %.4f%%\n", 100*rms(err2, ref2))

	// Predicted speedups on the paper's targets.
	wl := machine.ConvWorkload{InC: 64, InH: 28, InW: 28, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	fmt.Println("\npredicted int8 speedup over fp32 (machine model):")
	for _, t := range machine.AllTargets() {
		s := machine.ConvSchedule{
			Layout:  tensor.NCHWc(t.VectorLanes),
			ICBlock: t.VectorLanes, OCBlock: t.VectorLanes,
			RegN: 8, UnrollKer: true,
		}
		f := t.ConvTime(wl, s, t.Cores, machine.BackendPool, 1)
		q := t.Int8ConvTime(wl, s, t.Cores, machine.BackendPool, 1)
		fmt.Printf("  %-16s %.2fx (ISA factor %.1f)\n", t.Name, f/q, t.Int8Factor())
	}
}

func rms(err2, ref2 float64) float64 {
	if ref2 == 0 {
		return 0
	}
	return math.Sqrt(err2 / ref2)
}
