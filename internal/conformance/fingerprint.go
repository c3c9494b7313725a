package conformance

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"newgame/internal/sta"
)

// Fingerprint renders the complete externally observable analysis state
// of an analyzer — every pin/port arrival and slew at all four
// rise/fall × early/late views, every pin/port setup slack (so the backward
// pass is pinned too), every endpoint check with its worst path's steps
// (name, transition, delay: which edge each vertex took and what the delay
// rule charges for it), WNS and TNS — into one digest.
// Two analyzers agree on timing iff their fingerprints are equal: float
// bits are hashed raw, so this is byte-equality, not tolerance comparison.
// The iteration order is the design's own slice order, which clones
// preserve, so fingerprints are comparable across independently built
// analyzers of identical netlists.
func Fingerprint(a *sta.Analyzer) string {
	h := sha256.New()
	buf := make([]byte, 8)
	f := func(v float64) {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		h.Write(buf)
	}
	s := func(str string) { h.Write([]byte(str)); h.Write([]byte{0}) }
	pinState := func(get func(rf, el int) (float64, bool)) {
		for rf := 0; rf < 2; rf++ {
			for el := 0; el < 2; el++ {
				v, ok := get(rf, el)
				if !ok {
					h.Write([]byte{0xff})
					continue
				}
				f(v)
			}
		}
	}
	for _, c := range a.D.Cells {
		s(c.Name)
		for _, p := range c.Pins {
			pin := p
			pinState(func(rf, el int) (float64, bool) {
				v, ok := a.PinArrival(pin, rf, el)
				return float64(v), ok
			})
			pinState(func(rf, el int) (float64, bool) {
				v, ok := a.PinSlew(pin, rf, el)
				return float64(v), ok
			})
			f(float64(a.PinSetupSlack(pin)))
		}
	}
	for _, p := range a.D.Ports {
		port := p
		s(port.Name)
		pinState(func(rf, el int) (float64, bool) {
			v, ok := a.PortArrival(port, rf, el)
			return float64(v), ok
		})
		pinState(func(rf, el int) (float64, bool) {
			v, ok := a.PortSlew(port, rf, el)
			return float64(v), ok
		})
		f(float64(a.PortSetupSlack(port)))
	}
	for _, kind := range []sta.CheckKind{sta.Setup, sta.Hold} {
		w := a.Walker()
		for _, e := range a.EndpointSlacks(kind) {
			s(e.Name())
			h.Write([]byte{byte(e.RF)})
			f(float64(e.Slack))
			f(float64(e.Arrival))
			f(float64(e.Required))
			f(float64(e.CRPR))
			for _, st := range w.Worst(e).Steps {
				s(st.Name)
				h.Write([]byte{byte(st.RF)})
				f(float64(st.Delay))
			}
		}
		f(float64(a.WNS(kind)))
		f(float64(a.TNS(kind)))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// endpointKey identifies an endpoint check across analyzers of the same
// netlist (or clones of it) by name, kind and transition.
func endpointKey(e sta.EndpointSlack) string {
	return fmt.Sprintf("%s|%d|%d", e.Name(), e.Kind, e.RF)
}
