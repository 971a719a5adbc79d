package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchFile is the part of BENCHMARK.json the steadiness command reads.
type benchFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Q1, median and Q3 of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// steady runs one workload N untraced times, on seeds 1..N, and prints
// each metric's median and quartiles beside its bound from
// BENCHMARK.json in the working directory.
func steady(args []string) error {
	fl := flag.NewFlagSet("steady", flag.ExitOnError)
	name := fl.String("workload", "", "workload to run")
	runs := fl.Int("runs", 10, "number of runs")
	seconds := fl.String("seconds", "10", "--seconds of each run")
	_ = fl.Parse(args)
	if workloads[*name] == nil || *runs < 1 {
		return fmt.Errorf("need --workload one of %v and --runs ≥ 1", names())
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []float64
	for i := 1; i <= *runs; i++ {
		seed := strconv.Itoa(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", seed, "--seconds", *seconds, "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %s: %w", seed, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return fmt.Errorf("run with seed %s: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %s: outputs incorrect", seed)
		}
		failShares = append(failShares, float64(res.Failed)/float64(res.Attempted))
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "steady: run %d/%d done\n", i, *runs)
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s: %d runs, seeds 1..%d, --seconds %s\n", *name, *runs, *runs, *seconds)
	fmt.Printf("%-32s %14s %14s %14s %8s %6s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "")
	for _, k := range keys {
		q1, q2, q3 := quartiles(values[k])
		spread := (q3 - q1) / q2
		verdict := ""
		if b, ok := bounds[k]; ok {
			switch {
			case spread > b:
				verdict = "OVER BOUND"
			case spread > b/3:
				verdict = "over bound/3"
			default:
				verdict = "ok"
			}
			fmt.Printf("%-32s %14.6g %14.6g %14.6g %8.4f %6.2f %s %s\n", k, q1, q2, q3, spread, b, units[k], verdict)
		} else {
			fmt.Printf("%-32s %14.6g %14.6g %14.6g %8.4f %6s %s\n", k, q1, q2, q3, spread, "-", units[k])
		}
		fmt.Fprintf(os.Stderr, "steady: %s per run: %.6g\n", k, values[k])
	}
	_, fs, _ := quartiles(failShares)
	fmt.Printf("failed share (median over runs): %g\n", fs)
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
