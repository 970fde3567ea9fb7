package core

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/tensor"
)

// TestMeasuredEvaluatorRuns measures one small workload per kernel family
// for real: each must compile, run and score a positive, finite time.
func TestMeasuredEvaluatorRuns(t *testing.T) {
	conv3 := machine.ConvWorkload{InC: 8, InH: 8, InW: 8, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	conv1 := machine.ConvWorkload{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 1, KW: 1, StrideH: 2, StrideW: 2}
	dw := conv3
	dw.Groups = 8
	grouped := conv3
	grouped.OutC, grouped.Groups = 16, 2
	cases := []struct {
		name string
		wl   machine.ConvWorkload
		s    machine.ConvSchedule
	}{
		{"direct-3x3", conv3, machine.ConvSchedule{Layout: tensor.NCHWc(4), ICBlock: 4, OCBlock: 4, RegN: 4, UnrollKer: true}},
		{"direct-1x1", conv1, machine.ConvSchedule{Layout: tensor.NCHWc(8), ICBlock: 8, OCBlock: 8, RegN: 2}},
		{"winograd", conv3, machine.ConvSchedule{Layout: tensor.NCHWc(4), ICBlock: 4, OCBlock: 8, RegN: 1, Algorithm: machine.AlgoWinograd}},
		{"depthwise", dw, machine.ConvSchedule{Layout: tensor.NCHWc(4), ICBlock: 4, OCBlock: 4, RegN: 4, UnrollKer: true}},
		{"grouped", grouped, machine.ConvSchedule{Layout: tensor.NCHWc(2), ICBlock: 2, OCBlock: 4, RegN: 8}},
		{"grain-4", conv3, machine.ConvSchedule{Layout: tensor.NCHWc(4), ICBlock: 4, OCBlock: 4, RegN: 4, Grain: 4}},
	}
	eval := MeasuredEvaluator(2)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := eval(tc.wl, tc.s); !(got > 0) || math.IsInf(got, 0) {
				t.Fatalf("measured time = %v, want positive and finite", got)
			}
		})
	}
}

// TestMeasuredEvaluatorRejects pins that schedules the compile path refuses
// score +Inf rather than panicking or scoring zero.
func TestMeasuredEvaluatorRejects(t *testing.T) {
	conv3 := machine.ConvWorkload{InC: 8, InH: 8, InW: 8, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	conv1 := conv3
	conv1.KH, conv1.KW, conv1.PadH, conv1.PadW = 1, 1, 0, 0
	dw := conv3
	dw.Groups = 8
	cases := []struct {
		name string
		wl   machine.ConvWorkload
		s    machine.ConvSchedule
	}{
		{"non-dividing-block", conv3, machine.ConvSchedule{Layout: tensor.NCHWc(3), ICBlock: 3, OCBlock: 4, RegN: 4}},
		{"winograd-1x1", conv1, machine.ConvSchedule{Layout: tensor.NCHWc(4), ICBlock: 4, OCBlock: 4, RegN: 1, Algorithm: machine.AlgoWinograd}},
		{"winograd-nchw", conv3, machine.ConvSchedule{Layout: tensor.NCHW(), Algorithm: machine.AlgoWinograd}},
		{"depthwise-split-blocks", dw, machine.ConvSchedule{Layout: tensor.NCHWc(4), ICBlock: 4, OCBlock: 8, RegN: 4}},
	}
	eval := MeasuredEvaluator(1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := eval(tc.wl, tc.s); !math.IsInf(got, 1) {
				t.Fatalf("rejected schedule scored %v, want +Inf", got)
			}
		})
	}
}
