package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	ca "cacheautomaton"
	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/caformat"
	"cacheautomaton/internal/machine"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/rulefmt"
	"cacheautomaton/internal/workload"
)

// layerReps is how many times the traced run times each layer call; it
// reports the median.
const layerReps = 5

// frontEnd runs a rule set's front end: regexc for regexes, the ClamAV
// database parser for signatures, the Levenshtein NFA construction for fuzzy
// patterns.
func frontEnd(rs *ruleSet) (*nfa.NFA, []string, error) {
	switch rs.Kind {
	case kindExact:
		return rulefmt.CompileClamAV(rs.Text)
	case kindFuzzy:
		n := nfa.New()
		for i, p := range rs.Pats {
			n.Union(workload.LevenshteinNFA(p, rs.MaxDist, int32(i)))
		}
		return n, nil, n.Validate()
	}
	n, err := regexc.CompileSet(rs.Pats, regexc.Options{})
	return n, nil, err
}

// timeWith prepares an argument with prep (untimed), then times f on
// it, layerReps times; it returns the median wall time in seconds and
// f's last result.
func timeWith[P, T any](prep func() (P, error), f func(P) (T, error)) (float64, T, error) {
	var secs []float64
	var out T
	for i := 0; i < layerReps; i++ {
		arg, err := prep()
		if err != nil {
			return 0, out, err
		}
		settle()
		t0 := time.Now()
		v, err := f(arg)
		if err != nil {
			return 0, out, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		out = v
	}
	return median(secs), out, nil
}

func none() (struct{}, error) { return struct{}{}, nil }

// timeIt times f layerReps times; see timeWith.
func timeIt[T any](f func() (T, error)) (float64, T, error) {
	return timeWith(none, func(struct{}) (T, error) { return f() })
}

func newNFA(rs *ruleSet) func() (*nfa.NFA, error) {
	return func() (*nfa.NFA, error) { n, _, err := frontEnd(rs); return n, err }
}

// layerProbe times each compile layer on every rule set of the workload
// (both designs), and each kernel entry point on every scanned case, by
// timing the calls into the layer from outside. It also reports the
// simulated statistics, which must repeat exactly for a seed.
func layerProbe(ctx context.Context, b *bench, sets []*ruleSet, cases []*scanCase) error {
	var front, mapS, opt, newS, enc, dec, kb float64
	var states, parts int
	placements := map[string]*mapper.Placement{}
	for _, rs := range sets {
		s, _, err := timeIt(newNFA(rs))
		b.op("layer", err)
		if err != nil {
			return fmt.Errorf("%s front end: %w", rs.Name, err)
		}
		front += s
		for _, d := range []ca.Design{ca.Performance, ca.Space} {
			place := func(n *nfa.NFA) (*mapper.Placement, error) {
				return mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt)})
			}
			if d == ca.Space {
				place = func(n *nfa.NFA) (*mapper.Placement, error) {
					pl, _, err := mapper.MapOptimized(n, mapper.Config{Design: arch.NewDesign(arch.SpaceOpt), AllowChainedG4: true})
					return pl, err
				}
			}
			s, pl, err := timeWith(newNFA(rs), place)
			b.op("layer", err)
			if err != nil {
				return fmt.Errorf("%s/%s map: %w", rs.Name, d, err)
			}
			if d == ca.Space {
				opt += s
			} else {
				mapS += s
			}
			states += pl.NFA.NumStates()
			parts += pl.NumPartitions()
			placements[rs.Name+"/"+d.String()] = pl
			s, _, err = timeIt(func() (*machine.Machine, error) {
				return machine.New(pl, machine.Options{CollectMatches: true})
			})
			b.op("layer", err)
			if err != nil {
				return fmt.Errorf("%s/%s machine.New: %w", rs.Name, d, err)
			}
			newS += s
			var art []byte
			s, art, err = timeIt(func() ([]byte, error) {
				var buf bytes.Buffer
				err := caformat.Encode(&buf, pl, nil)
				return buf.Bytes(), err
			})
			b.op("layer", err)
			if err != nil {
				return fmt.Errorf("%s/%s encode: %w", rs.Name, d, err)
			}
			enc += s
			kb += float64(len(art)) / 1024
			s, _, err = timeIt(func() (*mapper.Placement, error) {
				pl, _, err := caformat.Decode(bytes.NewReader(art))
				return pl, err
			})
			b.op("layer", err)
			if err != nil {
				return fmt.Errorf("%s/%s decode: %w", rs.Name, d, err)
			}
			dec += s
		}
	}
	b.set("regexc.compile_s", "s", front)
	b.set("mapper.map_s", "s", mapS)
	b.set("mapper.optimize_s", "s", opt)
	b.set("machine.new_s", "s", newS)
	b.set("caformat.encode_s", "s", enc)
	b.set("caformat.decode_s", "s", dec)
	b.set("caformat.artifact_kb", "KiB", kb)
	b.set("mapper.states", "count", float64(states))
	b.set("mapper.partitions", "count", float64(parts))
	return kernelProbe(ctx, b, cases, placements)
}

// kernelProbe times the machine's three entry points on a fixed input
// per case and reports the simulated statistics of that input.
func kernelProbe(ctx context.Context, b *bench, cases []*scanCase, placements map[string]*mapper.Placement) error {
	var runNs, countNs, streamNs, gap []float64
	var cycles, matches int64
	var act, actParts, g1, g4, energy float64
	for _, c := range cases {
		pl := placements[c.label()]
		if pl.NFA.NumStates() != c.a.States() || pl.NumPartitions() != c.a.Partitions() {
			b.incorrect(fmt.Errorf("%s: layer-by-layer compile gives %d states in %d partitions, the facade %d in %d",
				c.label(), pl.NFA.NumStates(), pl.NumPartitions(), c.a.States(), c.a.Partitions()))
		}
		input := c.set.Input[:min(len(c.set.Input), 64<<10)]
		run, err := machine.New(pl, machine.Options{CollectMatches: true})
		b.op("layer", err)
		if err != nil {
			return err
		}
		count, err := machine.New(pl, machine.Options{})
		b.op("layer", err)
		if err != nil {
			return err
		}
		n := float64(len(input))
		s, res, err := timeIt(func() (*machine.Result, error) { run.Reset(); return run.RunContext(ctx, input) })
		b.op("layer", err)
		if err != nil {
			return err
		}
		runNs = append(runNs, s*1e9/n)
		want, _, err := c.a.RunContext(ctx, input)
		b.op("layer", err)
		if err != nil {
			return err
		}
		if len(res.Matches) != len(want) {
			b.incorrect(fmt.Errorf("%s: machine reports %d matches, the facade %d", c.label(), len(res.Matches), len(want)))
		}
		s, res, err = timeIt(func() (*machine.Result, error) { count.Reset(); return count.RunContext(ctx, input) })
		b.op("layer", err)
		if err != nil {
			return err
		}
		countNs = append(countNs, s*1e9/n)
		hostGbps := 8 * n / s / 1e9
		gap = append(gap, c.a.ThroughputGbps()/hostGbps)
		s, _, err = timeIt(func() (int, error) {
			run.Reset()
			for _, ch := range cut(input, chunkSize) {
				if _, err := run.RunContext(ctx, ch); err != nil {
					return 0, err
				}
				run.DrainMatches()
			}
			return 0, nil
		})
		b.op("layer", err)
		if err != nil {
			return err
		}
		streamNs = append(streamNs, s*1e9/n)

		st, err := c.a.Count(input)
		b.op("layer", err)
		if err != nil {
			return err
		}
		a := res.Activity
		if st.Cycles != a.Cycles || st.Matches != res.MatchCount {
			b.incorrect(fmt.Errorf("%s: Count gives %d cycles %d matches, the machine %d and %d",
				c.label(), st.Cycles, st.Matches, a.Cycles, res.MatchCount))
		}
		cycles += a.Cycles
		matches += res.MatchCount
		act += a.AvgActiveStates()
		actParts += a.AvgActivePartitions()
		g1 += float64(a.SumG1Crossings) / float64(a.Cycles)
		g4 += float64(a.SumG4Crossings) / float64(a.Cycles)
		energy += st.EnergyPJPerSymbol
	}
	k := float64(len(cases))
	b.set("machine.run_ns_per_byte", "ns/B", geomean(runNs))
	b.set("machine.count_ns_per_byte", "ns/B", geomean(countNs))
	b.set("machine.stream_ns_per_byte", "ns/B", geomean(streamNs))
	b.set("sim.host_gap", "ratio", geomean(gap))
	b.set("sim.cycles", "count", float64(cycles))
	b.set("sim.matches", "count", float64(matches))
	b.set("sim.avg_active_states", "count", act/k)
	b.set("sim.avg_active_partitions", "count", actParts/k)
	b.set("sim.g1_per_cycle", "count", g1/k)
	b.set("sim.g4_per_cycle", "count", g4/k)
	b.set("sim.energy_pj_per_symbol", "pJ", energy/k)
	return nil
}
