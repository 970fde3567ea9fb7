package ops

import (
	"fmt"

	"repro/internal/tensor"
)

// DenseInto computes out = in × Wᵀ + b for a rank-2 (batch, inFeatures) input
// and a (outFeatures, inFeatures) weight. At batch size 1 (the paper's
// latency setting) this is a GEMV and is bandwidth-bound on the weight
// matrix. It writes into a caller-provided destination (nil dst allocates).
func DenseInto(dst, in, weight *tensor.Tensor, bias []float32, reluAfter bool, pf ParallelFor) *tensor.Tensor {
	if in.Rank() != 2 {
		panic(fmt.Sprintf("ops: Dense expects rank-2 input, got %v", in.Shape))
	}
	if weight.Rank() != 2 {
		panic(fmt.Sprintf("ops: Dense expects rank-2 weight, got %v", weight.Shape))
	}
	n, inF := in.Shape[0], in.Shape[1]
	outF, wInF := weight.Shape[0], weight.Shape[1]
	if inF != wInF {
		panic(fmt.Sprintf("ops: Dense feature mismatch %d vs %d", inF, wInF))
	}
	out := tensor.EnsureDst(dst, tensor.Flat(), n, outF)
	if pf == nil {
		pf = Serial
	}
	// One dot product per unit is far too fine for the dispatch overhead, so
	// group enough rows per work item that each chunk covers at least ~4096
	// multiply-adds. Dense layers are not schedule-searched — this fixed grain
	// only amortizes dispatch, it does not change results.
	grain := 1
	if inF > 0 {
		grain = (4096 + inF - 1) / inF
	}
	units := n * outF
	pf(Chunks(units, grain), func(ck int) {
		lo, hi := ChunkBounds(ck, units, grain)
		for unit := lo; unit < hi; unit++ {
			b := unit / outF
			o := unit % outF
			row := in.Data[b*inF : (b+1)*inF]
			wRow := weight.Data[o*inF : (o+1)*inF]
			var acc float32
			if bias != nil {
				acc = bias[o]
			}
			// Four-way unrolled dot product: the scalar stand-in for the
			// vectorized FMA chain.
			i := 0
			var a0, a1, a2, a3 float32
			for ; i+4 <= inF; i += 4 {
				a0 += row[i] * wRow[i]
				a1 += row[i+1] * wRow[i+1]
				a2 += row[i+2] * wRow[i+2]
				a3 += row[i+3] * wRow[i+3]
			}
			acc += a0 + a1 + a2 + a3
			for ; i < inF; i++ {
				acc += row[i] * wRow[i]
			}
			if reluAfter {
				acc = relu32(acc)
			}
			out.Data[unit] = acc
		}
	})
	return out
}
