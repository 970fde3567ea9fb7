// Package ops implements the CNN operators NeoCPU-Go executes: the direct
// convolution template of the paper's Algorithm 1 (blocked NCHW[x]c layout,
// register blocking along out_width, optional kernel-loop unrolling, fused
// epilogues), reference convolutions in NCHW/NHWC for correctness checking
// and for the library baselines, and the memory-bound operators that surround
// convolutions in CNN models (pooling, batch norm, activations, element-wise
// arithmetic, dense layers and the SSD multibox head).
//
// Each kernel has one entry point, an ...Into function that writes its result
// into a caller-provided destination (nil allocates). Parallel kernels accept
// a ParallelFor so the caller chooses the threading runtime (the custom
// thread pool, the OpenMP-style pool, or serial execution).
package ops

import (
	"repro/internal/tensor"
)

// ParallelFor runs body(i) for i in [0, n), possibly concurrently. The
// implementations live in internal/threadpool; Serial is the default.
type ParallelFor func(n int, body func(i int))

// Serial is the trivial ParallelFor.
func Serial(n int, body func(i int)) {
	for i := 0; i < n; i++ {
		body(i)
	}
}

// Chunks and ChunkBounds implement the kernels' searched parallel grain: a
// parallel region over `units` work units is dispatched as Chunks(units,
// grain) contiguous items of at most `grain` units each, and each item
// iterates its ChunkBounds range on one goroutine. Grain values below 1
// normalize to 1, which reproduces the historical one-unit-per-item split
// exactly. Larger grains amortize per-item dispatch (closure call,
// accumulator-tile setup) against static-partitioning imbalance — the
// trade-off the cost model searches. Unit iteration order inside a chunk is
// ascending and every unit writes disjoint output, so results are
// bit-identical for every grain under every ParallelFor. Both helpers are
// allocation-free leaf calls: a kernel's parallel region still allocates only
// its single dispatch closure, independent of the grain.

// Chunks returns the number of grain-sized work items covering units.
func Chunks(units, grain int) int {
	if grain < 1 {
		grain = 1
	}
	return (units + grain - 1) / grain
}

// ChunkBounds returns work item ck's [lo, hi) unit range under the grain.
func ChunkBounds(ck, units, grain int) (int, int) {
	if grain < 1 {
		grain = 1
	}
	lo := ck * grain
	hi := lo + grain
	if hi > units {
		hi = units
	}
	return lo, hi
}

// Conv2DAttrs carries the geometry attributes of a convolution node.
type Conv2DAttrs struct {
	OutC, KH, KW     int
	StrideH, StrideW int
	PadH, PadW       int
	// Groups partitions the channels: input channels split into Groups
	// disjoint sets and each output channel reduces over only its group's
	// inputs. 0 or 1 means a dense convolution; Groups equal to the input
	// channel count is a depthwise convolution. The weight's second dimension
	// is in_channels/Groups.
	Groups int
}

// OutSize returns the output spatial size for an input of h×w.
func (a Conv2DAttrs) OutSize(h, w int) (int, int) {
	return (h+2*a.PadH-a.KH)/a.StrideH + 1, (w+2*a.PadW-a.KW)/a.StrideW + 1
}

// GroupCount normalizes the Groups field: the zero value means one dense
// group.
func (a Conv2DAttrs) GroupCount() int {
	if a.Groups <= 1 {
		return 1
	}
	return a.Groups
}

// Depthwise reports whether the attributes describe a depthwise convolution
// over inC input channels: one group per channel.
func (a Conv2DAttrs) Depthwise(inC int) bool {
	return a.GroupCount() > 1 && a.Groups == inC && a.OutC == inC
}

// Epilogue describes computation fused into a convolution's output store:
// bias addition, residual addition and ReLU, in that order. Fusing these
// memory-bound operators into the CONV raises arithmetic intensity
// (Section 2.2 of the paper).
type Epilogue struct {
	// Bias, if non-nil, has one entry per output channel.
	Bias []float32
	// Residual, if non-nil, is added element-wise; it must share the
	// convolution output's layout and shape.
	Residual *tensor.Tensor
	// ReLU clamps negatives to zero after the additions.
	ReLU bool
}

func relu32(v float32) float32 {
	if v < 0 {
		return 0
	}
	return v
}
