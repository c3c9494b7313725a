package avs

import (
	"math"
	"testing"

	"newgame/internal/aging"
	"newgame/internal/liberty"
)

func controller(m Monitor) Controller {
	return Controller{
		Monitor: m, MarginFrac: 0.04,
		VMin: 0.55, VMax: 1.05, VStep: 0.0125,
	}
}

func TestMonitorTracksConditions(t *testing.T) {
	m := DDROFor(aging.C5315Model())
	base := m.Delay(liberty.TT, 0.8, 85, 0)
	if base <= 0 || math.IsInf(base, 0) {
		t.Fatalf("monitor delay = %v", base)
	}
	if m.Delay(liberty.SS, 0.8, 85, 0) <= base {
		t.Error("SS die should read slower")
	}
	if m.Delay(liberty.FF, 0.8, 85, 0) >= base {
		t.Error("FF die should read faster")
	}
	if m.Delay(liberty.TT, 0.7, 85, 0) <= base {
		t.Error("lower V should read slower")
	}
	if m.Delay(liberty.TT, 0.8, 85, 0.03) <= base {
		t.Error("aged die should read slower")
	}
}

func TestControllerPicksHigherVForSlowerDies(t *testing.T) {
	c := aging.C5315Model().SizeFor(0.8, 0.03)
	ctl := controller(DDROFor(c))
	ctl.Calibrate(c, 105)
	vSS, okSS := ctl.PickVoltage(liberty.SS, 105, 0)
	vTT, okTT := ctl.PickVoltage(liberty.TT, 105, 0)
	vFF, okFF := ctl.PickVoltage(liberty.FF, 105, 0)
	if !okSS || !okTT || !okFF {
		t.Fatalf("controller failed: %v %v %v", okSS, okTT, okFF)
	}
	if !(vSS > vTT && vTT > vFF) {
		t.Errorf("voltage ordering broken: SS %v TT %v FF %v", vSS, vTT, vFF)
	}
}

func TestControllerAgingCompensation(t *testing.T) {
	c := aging.C7552Model().SizeFor(0.8, 0.03)
	ctl := controller(DDROFor(c))
	ctl.Calibrate(c, 105)
	vFresh, _ := ctl.PickVoltage(liberty.TT, 105, 0)
	vAged, _ := ctl.PickVoltage(liberty.TT, 105, 0.035)
	if vAged <= vFresh {
		t.Errorf("aged die should get a higher supply: %v vs %v", vAged, vFresh)
	}
}

func TestCompareAVSSavesPowerAndMeetsTiming(t *testing.T) {
	c := aging.C5315Model().SizeFor(0.8, 0.03)
	ctl := controller(DDROFor(c))
	ctl.Calibrate(c, 105)
	dies := []liberty.ProcessCorner{liberty.SS, liberty.SSG, liberty.TT, liberty.FFG, liberty.FF}
	cmp := Compare(ctl, c, dies, 105)
	for i, o := range cmp.AVS {
		if !o.Met {
			t.Errorf("AVS die %s misses timing at %vV", dies[i].Name, o.V)
		}
	}
	for i, o := range cmp.Fixed {
		if !o.Met {
			t.Errorf("fixed-V die %s misses timing", dies[i].Name)
		}
	}
	if cmp.MeanPowerSaving <= 0.02 {
		t.Errorf("AVS saving = %.1f%%, expected a material gain", cmp.MeanPowerSaving*100)
	}
	// Fast dies must run at or below the fixed worst-case voltage.
	for i, o := range cmp.AVS {
		if dies[i].Name == "FF" && o.V >= cmp.FixedV {
			t.Errorf("FF die AVS voltage %v not below fixed %v", o.V, cmp.FixedV)
		}
	}
	// The DC margin a typical die carries under worst-case signoff must be
	// positive — that's the margin AVS removes.
	if cmp.DCMarginPs <= 0 {
		t.Errorf("DC margin = %v ps, want positive", cmp.DCMarginPs)
	}
}
