package triage

import (
	"errors"

	"newgame/internal/pack/wire"
	"newgame/internal/units"
)

// The smallest encodings of an extract, a prune record and a violation:
// their fixed fields, which bound each count against the bytes left.
const extractBytes, pruneBytes, violationBytes = 6 * 4, 4 * 4, 9*4 + 2*8

// EncodeExtracts renders extracts rendered at epoch on pack/wire, the reply
// of a shard's /triage/extract: the epoch, a string table in which every
// name, key and tag appears once, then per extract its counts (violations,
// prunes, segments, then its pair counts) followed by its fields, each
// string a u32 index into the table. The table's index and the two writers
// the table and the body are encoded on are kept on the graph across calls,
// as its segment keys are, so the reply is all a warm call allocates.
func (g *Graph) EncodeExtracts(epoch int64, exs []ScenarioExtract) []byte {
	g = g.acquire()
	defer g.mu.Unlock()
	clear(g.strID)
	g.strs = g.strs[:0]
	g.head.Reset()
	g.body.Reset()
	head, body := &g.head, &g.body
	ref := func(ss ...string) {
		for _, s := range ss {
			id, ok := g.strID[s]
			if !ok {
				id = uint32(len(g.strs))
				g.strID[s], g.strs = id, append(g.strs, s)
			}
			body.U32(id)
		}
	}
	body.U32(uint32(len(exs)))
	for _, ex := range exs {
		segs := 0
		for _, v := range ex.Violations {
			segs += len(v.Segments)
		}
		for _, n := range [...]int{len(ex.Violations), len(ex.Prunes), segs, ex.AnalyzedPairs, ex.PrunedPairs} {
			body.U32(uint32(n))
		}
		ref(ex.Scenario)
		for _, p := range ex.Prunes {
			ref(p.Scenario, p.Kind, p.DominatedBy, p.Reason)
		}
		for _, v := range ex.Violations {
			ref(v.Scenario, v.Kind, v.Endpoint, v.RF, v.ClockPair, v.DerateClass, v.PrunedBy)
			body.F64(float64(v.Slack))
			body.U32(uint32(v.Depth))
			body.F64(float64(v.Pessimism))
			body.U32(uint32(len(v.Segments)))
			ref(v.Segments...)
		}
	}
	head.I64(epoch)
	head.U32(uint32(len(g.strs)))
	for _, s := range g.strs {
		head.String(s)
	}
	return body.AppendTo(head.AppendTo(make([]byte, 0, head.Len()+body.Len())))
}

var errBadExtracts = errors.New("triage: extract reply: string index or segment count out of range")

// DecodeExtracts reads what EncodeExtracts wrote. Every count is checked
// against the bytes left before a slice is sized from it, so hostile bytes
// allocate in proportion to their own length; every string index is
// checked against the table. An extract's violations share one segment
// slab, and equal strings one backing array.
func DecodeExtracts(b []byte) (int64, []ScenarioExtract, error) {
	r := wire.NewReader(b)
	epoch := r.I64()
	strs := make([]string, r.Count(4))
	for i := range strs {
		strs[i] = r.String()
	}
	bad := false
	str := func() string {
		if i := r.U32(); int(i) < len(strs) {
			return strs[i]
		}
		bad = true
		return ""
	}
	exs := make([]ScenarioExtract, r.Count(extractBytes))
	for i := range exs {
		ex := &exs[i]
		nv, np, slab := r.Count(violationBytes), r.Count(pruneBytes), make([]string, r.Count(4))
		ex.AnalyzedPairs, ex.PrunedPairs, ex.Scenario = int(r.U32()), int(r.U32()), str()
		if np > 0 {
			ex.Prunes = make([]PruneRecord, np)
		}
		for j := range ex.Prunes {
			ex.Prunes[j] = PruneRecord{Scenario: str(), Kind: str(), DominatedBy: str(), Reason: str()}
		}
		if nv > 0 {
			ex.Violations = make([]Violation, nv)
		}
		for j := range ex.Violations {
			v := &ex.Violations[j]
			v.Scenario, v.Kind, v.Endpoint, v.RF, v.ClockPair, v.DerateClass, v.PrunedBy = str(), str(), str(), str(), str(), str(), str()
			v.Slack, v.Depth, v.Pessimism = units.Ps(r.F64()), int(r.U32()), units.Ps(r.F64())
			n := r.Count(4)
			if n > len(slab) {
				bad = true
				break
			}
			if n > 0 {
				v.Segments, slab = slab[:n:n], slab[n:]
			}
			for k := range v.Segments {
				v.Segments[k] = str()
			}
		}
		bad = bad || len(slab) > 0
	}
	if err := r.Done(); err != nil {
		return 0, nil, err
	}
	if bad {
		return 0, nil, errBadExtracts
	}
	return epoch, exs, nil
}
