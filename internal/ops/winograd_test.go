package ops

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func runWinogradBlocked(in, wt *tensor.Tensor, attrs Conv2DAttrs, icb, ocb int, epi Epilogue, scratch *tensor.Tensor) *tensor.Tensor {
	blockedIn := tensor.ToNCHWc(in, icb)
	u := WinogradWeightTransformNCHWc(wt, icb, ocb)
	var blockedEpi Epilogue
	blockedEpi.Bias = epi.Bias
	blockedEpi.ReLU = epi.ReLU
	if epi.Residual != nil {
		blockedEpi.Residual = tensor.ToNCHWc(epi.Residual, ocb)
	}
	out := Conv2DWinogradNCHWcInto(nil, scratch, blockedIn, u, attrs, icb, ocb, 1, blockedEpi, Serial)
	return tensor.FromNCHWc(out)
}

// winogradCase is one geometry of the blocked Winograd kernel checked
// against the NCHW direct reference.
type winogradCase struct {
	name          string
	c, h, w, ocnt int
	pad           int
	icb, ocb      int
}

func checkWinogradCases(t *testing.T, seed uint64, cases []winogradCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, wt := convCase(seed, tc.c, tc.h, tc.w, tc.ocnt, 3, 3)
			attrs := Conv2DAttrs{OutC: tc.ocnt, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: tc.pad, PadW: tc.pad}
			ref := Conv2DNCHWInto(nil, in, wt, attrs, Epilogue{}, nil)
			got := runWinogradBlocked(in, wt, attrs, tc.icb, tc.ocb, Epilogue{}, nil)
			if !tensor.AllClose(ref, got, 1e-3) {
				t.Fatalf("blocked winograd diverges from direct: max diff %g", tensor.MaxAbsDiff(ref, got))
			}
		})
	}
}

// TestWinogradMatchesReference runs the blocked kernel at block 1 — one
// channel per block, so activations keep the plain NCHW channel order —
// over even and odd outputs (partial tiles), both paddings, a single
// channel and a wide row.
func TestWinogradMatchesReference(t *testing.T) {
	checkWinogradCases(t, 77, []winogradCase{
		{"even-pad1", 8, 8, 8, 16, 1, 1, 1},
		{"even-pad0", 8, 10, 10, 8, 0, 1, 1},
		{"odd-output-pad1", 4, 7, 9, 8, 1, 1, 1}, // 7x9 output: partial tiles
		{"odd-output-pad0", 4, 7, 7, 4, 0, 1, 1}, // 5x5 output
		{"single-channel", 1, 6, 6, 1, 1, 1, 1},
		{"wide", 3, 5, 17, 5, 1, 1, 1},
	})
}

func TestWinogradEpilogue(t *testing.T) {
	in, wt := convCase(78, 8, 8, 8, 8, 3, 3)
	attrs := Conv2DAttrs{OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	bias := make([]float32, 8)
	for i := range bias {
		bias[i] = float32(i)*0.2 - 0.7
	}
	res := tensor.New(tensor.NCHW(), 1, 8, 8, 8)
	res.FillRandom(79, 1)
	epi := Epilogue{Bias: bias, Residual: res, ReLU: true}
	ref := Conv2DNCHWInto(nil, in, wt, attrs, epi, nil)
	for _, blk := range []int{1, 4} {
		got := runWinogradBlocked(in, wt, attrs, blk, blk, epi, nil)
		if !tensor.AllClose(ref, got, 1e-3) {
			t.Fatalf("block %d: winograd fused epilogue diverges: %g", blk, tensor.MaxAbsDiff(ref, got))
		}
	}
}

func TestWinogradParallelMatchesSerial(t *testing.T) {
	in, wt := convCase(80, 8, 12, 12, 8, 3, 3)
	attrs := Conv2DAttrs{OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	goPar := func(n int, body func(i int)) {
		done := make(chan struct{})
		for i := 0; i < n; i++ {
			go func(i int) { body(i); done <- struct{}{} }(i)
		}
		for i := 0; i < n; i++ {
			<-done
		}
	}
	for _, blk := range []int{1, 4} {
		bi := tensor.ToNCHWc(in, blk)
		u := WinogradWeightTransformNCHWc(wt, blk, blk)
		serial := Conv2DWinogradNCHWcInto(nil, nil, bi, u, attrs, blk, blk, 1, Epilogue{}, Serial)
		for _, grain := range []int{1, 3} {
			par := Conv2DWinogradNCHWcInto(nil, nil, bi, u, attrs, blk, blk, grain, Epilogue{}, goPar)
			if tensor.MaxAbsDiff(serial, par) != 0 {
				t.Fatalf("block %d grain %d: parallel winograd must be bit-identical to serial", blk, grain)
			}
		}
	}
}

func TestWinogradRejectsUnsupported(t *testing.T) {
	in, wt := convCase(81, 4, 8, 8, 4, 3, 3)
	u := WinogradWeightTransformNCHWc(wt, 1, 1)
	attrs := Conv2DAttrs{OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	// Strided attrs.
	mustPanic(t, func() {
		bad := attrs
		bad.StrideH, bad.StrideW = 2, 2
		Conv2DWinogradNCHWcInto(nil, nil, tensor.ToNCHWc(in, 1), u, bad, 1, 1, 1, Epilogue{}, nil)
	})
	// Unblocked input.
	mustPanic(t, func() { Conv2DWinogradNCHWcInto(nil, nil, in, u, attrs, 1, 1, 1, Epilogue{}, nil) })
	// Non-3x3 weights.
	_, wt5 := convCase(82, 4, 8, 8, 4, 5, 5)
	mustPanic(t, func() { WinogradWeightTransformNCHWc(wt5, 1, 1) })
}

func TestWinogradNCHWcMatchesReference(t *testing.T) {
	checkWinogradCases(t, 83, []winogradCase{
		{"even-pad1-8x8", 8, 8, 8, 16, 1, 8, 8},
		{"even-pad1-16c", 16, 14, 14, 32, 1, 16, 16},
		{"odd-output", 4, 7, 9, 8, 1, 4, 4},
		{"pad0", 8, 10, 10, 8, 0, 4, 8},
		{"block1", 3, 6, 6, 5, 1, 1, 1},
		{"mixed-blocks", 6, 9, 11, 12, 1, 3, 4},
		{"generic-ocb", 10, 8, 8, 10, 1, 5, 10}, // non-4/8/16 oc_bn: generic accum path
	})
}

func TestWinogradNCHWcScratchReuse(t *testing.T) {
	in, wt := convCase(84, 8, 12, 12, 16, 3, 3)
	attrs := Conv2DAttrs{OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	blockedIn := tensor.ToNCHWc(in, 8)
	u := WinogradWeightTransformNCHWc(wt, 8, 8)
	scratch := tensor.New(tensor.Flat(), WinogradScratchShape(blockedIn.Shape, attrs)...)
	dst := tensor.New(tensor.NCHWc(8), 1, 2, 12, 12, 8)
	want := Conv2DWinogradNCHWcInto(nil, nil, blockedIn, u, attrs, 8, 8, 1, Epilogue{}, nil)
	// Reusing the same destination and scratch across runs must stay
	// bit-identical: nothing in the kernel may depend on buffer contents.
	for i := 0; i < 2; i++ {
		got := Conv2DWinogradNCHWcInto(dst, scratch, blockedIn, u, attrs, 8, 8, 1, Epilogue{}, nil)
		if got != dst {
			t.Fatal("Into variant must write the provided destination")
		}
		if tensor.MaxAbsDiff(want, got) != 0 {
			t.Fatalf("run %d: scratch reuse changed the result", i)
		}
	}
}

func TestWinogradNCHWcRejectsBadShapes(t *testing.T) {
	in, wt := convCase(85, 8, 8, 8, 16, 3, 3)
	blockedIn := tensor.ToNCHWc(in, 8)
	u := WinogradWeightTransformNCHWc(wt, 8, 8)
	attrs := Conv2DAttrs{OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	// Wrong input block.
	mustPanic(t, func() {
		Conv2DWinogradNCHWcInto(nil, nil, tensor.ToNCHWc(in, 4), u, attrs, 8, 8, 1, Epilogue{}, nil)
	})
	// Transformed weight inconsistent with the declared blocks.
	mustPanic(t, func() {
		Conv2DWinogradNCHWcInto(nil, nil, blockedIn, u, attrs, 8, 16, 1, Epilogue{}, nil)
	})
	// Non-dividing weight blocks.
	mustPanic(t, func() { WinogradWeightTransformNCHWc(wt, 3, 8) })
	mustPanic(t, func() { WinogradWeightTransformNCHWc(wt, 8, 3) })
}

// TestQuickWinogradBlockedEquivalence is the property test of the blocked
// Winograd kernel: random geometry, random block factors drawn from the
// channel divisors, and every epilogue combination, all cross-validated
// against the plain-NCHW direct convolution ground truth.
func TestQuickWinogradBlockedEquivalence(t *testing.T) {
	f := func(seed uint64, cRaw, oRaw, hRaw, wRaw, icbRaw, ocbRaw uint8, pad, bias, residual, relu bool) bool {
		c := 1 + int(cRaw)%12
		o := 1 + int(oRaw)%12
		h := 5 + int(hRaw)%9
		w := 5 + int(wRaw)%9
		icb := pickDivisor(c, int(icbRaw))
		ocb := pickDivisor(o, int(ocbRaw))
		p := 0
		if pad {
			p = 1
		}
		in, wt := convCase(seed, c, h, w, o, 3, 3)
		attrs := Conv2DAttrs{OutC: o, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: p, PadW: p}
		epi := Epilogue{ReLU: relu}
		if bias {
			epi.Bias = make([]float32, o)
			for i := range epi.Bias {
				epi.Bias[i] = float32(i)*0.3 - 0.8
			}
		}
		if residual {
			oh, ow := attrs.OutSize(h, w)
			res := tensor.New(tensor.NCHW(), 1, o, oh, ow)
			res.FillRandom(seed+7, 1)
			epi.Residual = res
		}
		ref := Conv2DNCHWInto(nil, in, wt, attrs, epi, nil)
		got := runWinogradBlocked(in, wt, attrs, icb, ocb, epi, nil)
		if !tensor.AllClose(ref, got, 1e-3) {
			t.Logf("c=%d o=%d h=%d w=%d icb=%d ocb=%d pad=%d epi={bias=%v res=%v relu=%v}: max diff %g",
				c, o, h, w, icb, ocb, p, bias, residual, relu, tensor.MaxAbsDiff(ref, got))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// pickDivisor maps a random byte onto a divisor of n.
func pickDivisor(n, raw int) int {
	var divs []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			divs = append(divs, d)
		}
	}
	return divs[raw%len(divs)]
}
