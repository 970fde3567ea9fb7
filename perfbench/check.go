package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// winogradTol is the relative-error bound documented on neocpu.WithWinograd:
// the transform-domain kernel may differ from direct convolution within it.
const winogradTol = 1e-3

// seededImage returns n pseudo-random float32 values drawn from a standard
// normal distribution (a normalized image): the same seed and stream give
// the same values.
func seededImage(seed, stream uint64, n int) []float32 {
	r := rand.New(rand.NewPCG(seed, stream))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(r.NormFloat64())
	}
	return out
}

// topK returns the indices of the k largest values, largest first; ties
// keep the lower index first.
func topK(xs []float32, k int) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return xs[idx[i]] > xs[idx[j]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// maxRelErr is the largest absolute difference relative to the reference's
// largest magnitude.
func maxRelErr(got, ref []float32) float64 {
	var diff, scale float64
	for i := range ref {
		diff = math.Max(diff, math.Abs(float64(got[i])-float64(ref[i])))
		scale = math.Max(scale, math.Abs(float64(ref[i])))
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

// refCheck accepts an optimized output when its top-5 classes equal the
// reference's, in order, and its relative error stays within tol.
func refCheck(got, ref []float32, tol float64) error {
	if len(got) != len(ref) {
		return fmt.Errorf("output has %d values, reference %d", len(got), len(ref))
	}
	for i, v := range got {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("output[%d] = %v", i, v)
		}
	}
	g, r := topK(got, 5), topK(ref, 5)
	for i := range r {
		if g[i] != r[i] {
			return fmt.Errorf("top-5 %v, reference %v", g, r)
		}
	}
	if e := maxRelErr(got, ref); e > tol {
		return fmt.Errorf("max relative error %.3g > %.0e", e, tol)
	}
	return nil
}

// checkOutput classifies one inference against the expected output, bit
// for bit.
func checkOutput(out []*tensor.Tensor, err error, want []float32) outcome {
	switch {
	case err != nil:
		return outcomeError
	case !bitEqual(out[0].Data, want):
		return outcomeWrong
	}
	return outcomeOK
}

// bitEqual reports whether two outputs are identical bit for bit.
func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
