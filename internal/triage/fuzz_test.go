package triage

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"newgame/internal/units"
)

// violationsFrom decodes an arbitrary byte string into a hostile violation
// set: tiny scenario/endpoint namespaces force heavy collisions (duplicate
// violations, duplicate segments, shared clock pairs), segment counts of
// zero model zero-length paths, and positive slacks model junk input the
// clusterer must still partition. 5-byte header per violation + nseg
// segment bytes.
func violationsFrom(data []byte) []Violation {
	var vs []Violation
	for i := 0; i+5 <= len(data); {
		b := data[i : i+5]
		nseg := int(b[0]>>4) % 4
		v := Violation{
			Scenario:    fmt.Sprintf("s%d", b[0]%3),
			Kind:        []string{"setup", "hold"}[int(b[1])%2],
			Endpoint:    fmt.Sprintf("e%d", b[2]%8),
			RF:          []string{"rise", "fall"}[int(b[1]>>1)%2],
			Slack:       units.Ps(int(b[3]) - 96),
			Depth:       int(b[4] % 16),
			ClockPair:   fmt.Sprintf("ck%d>clk", b[4]%3),
			DerateClass: []string{"FlatOCV", "AOCV", "LVF"}[int(b[4]>>2)%3],
		}
		if int(b[1])%5 == 0 {
			v.PrunedBy = "s0"
		}
		i += 5
		for s := 0; s < nseg && i < len(data); s++ {
			v.Segments = append(v.Segments, fmt.Sprintf("u%d/Z>u%d/A", data[i]%6, (data[i]>>3)%6))
			i++
		}
		vs = append(vs, v)
	}
	return vs
}

func violationKey(v Violation) string {
	return fmt.Sprintf("%s|%s|%s|%s|%v|%v", v.Scenario, v.Kind, v.Endpoint, v.RF, v.Slack, v.Segments)
}

// FuzzTriageCluster feeds hostile violation sets to the relation-graph
// clusterer and checks its structural contract: no panic, a graph reused
// across calls answers what a fresh one does, the clusters partition the
// input exactly (multiset-preserving), per-cluster TNS is the member sum,
// the ranking is monotone, and shared segments never end up split across
// clusters.
func FuzzTriageCluster(f *testing.F) {
	f.Add([]byte(""))                         // empty violation list
	f.Add([]byte("ABCDE"))                    // single violation, one segment
	f.Add([]byte("\x00\x00\x00\x00\x00"))     // zero-length path, scenario s0
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAA"))     // duplicate violations and segments
	f.Add([]byte("\x10ab\x20xQ\x13cd\x30yQ")) // two violations sharing segment byte Q
	f.Add([]byte("ABCDEFFGHIJKLMNOPQRSTUVWXYZ0123456789abcdef"))
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := violationsFrom(data)
		g := NewGraph(nil)
		cs := g.clusters(slices.Clone(vs))
		again := g.clusters(slices.Clone(vs))
		fresh := NewGraph(nil).clusters(slices.Clone(vs))
		if !reflect.DeepEqual(cs, again) || !reflect.DeepEqual(cs, fresh) {
			t.Fatal("clustering is not deterministic, or a reused graph answers differently")
		}

		// Partition: every violation lands in exactly one cluster.
		got := map[string]int{}
		total := 0
		for i, c := range cs {
			if c.ID != i+1 {
				t.Fatalf("cluster IDs not sequential: %d at %d", c.ID, i)
			}
			if len(c.Violations) == 0 {
				t.Fatal("empty cluster")
			}
			if i > 0 && cs[i-1].TNS > c.TNS {
				t.Fatalf("ranking not monotone: %v after %v", c.TNS, cs[i-1].TNS)
			}
			var tns, worst units.Ps
			worst = c.Violations[0].Slack
			for _, v := range c.Violations {
				got[violationKey(v)]++
				tns += v.Slack
				if v.Slack < worst {
					worst = v.Slack
				}
				total++
			}
			if tns != c.TNS {
				t.Fatalf("cluster %d TNS %v != member sum %v", c.ID, c.TNS, tns)
			}
			if worst != c.WorstSlack {
				t.Fatalf("cluster %d worst %v != member min %v", c.ID, c.WorstSlack, worst)
			}
		}
		if total != len(vs) {
			t.Fatalf("clusters hold %d violations, input had %d", total, len(vs))
		}
		want := map[string]int{}
		for _, v := range vs {
			want[violationKey(v)]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cluster membership is not the input multiset:\ngot  %v\nwant %v", got, want)
		}

		// Soundness of the segment links: two violations sharing a segment
		// key must be in the same cluster. (Quadratic; cap the check.)
		if len(vs) <= 64 {
			clusterOf := map[string]int{}
			for _, c := range cs {
				for _, v := range c.Violations {
					for _, s := range v.Segments {
						if prev, ok := clusterOf[s]; ok && prev != c.ID {
							t.Fatalf("segment %q split across clusters %d and %d", s, prev, c.ID)
						}
						clusterOf[s] = c.ID
					}
				}
			}
		}
	})
}
