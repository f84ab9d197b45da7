package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// bounds is the part of BENCHMARK.json that -agree reads: each
// end-to-end metric's regression bound, a share of the median.
type bounds struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRuns loads the untraced runs of a -out file.
func readRuns(path string) ([]*runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Trace == 0 {
			out = append(out, &r)
		}
	}
	return out, sc.Err()
}

// agree compares two run sets of the same code. For every end-to-end
// metric and workload the two medians must differ by less than the
// metric's bound; a metric whose spread (interquartile range over median)
// within either set exceeds the bound is unresolved. Both count as
// failures, as does an incorrect run.
func agree(w io.Writer, benchPath, pathA, pathB string) (bool, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var b bounds
	if err := json.Unmarshal(data, &b); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	sets := [2]map[string]map[string][]float64{}
	ok := true
	for i, path := range []string{pathA, pathB} {
		runs, err := readRuns(path)
		if err != nil {
			return false, err
		}
		sets[i] = map[string]map[string][]float64{}
		for _, r := range runs {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(w, "%s: %s seed %d: correct=%t, %d failed requests\n", path, r.Workload, r.Seed, r.Correct, r.Failed)
				ok = false
			}
			if sets[i][r.Workload] == nil {
				sets[i][r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				sets[i][r.Workload][name] = append(sets[i][r.Workload][name], m.Value)
			}
		}
	}
	var names []string
	for name := range sets[0] {
		names = append(names, name)
	}
	for name := range sets[1] {
		if sets[0][name] == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %-24s %12s %7s %12s %7s %8s %6s  %s\n", "workload", "metric", "median A", "IQR/m", "median B", "IQR/m", "B vs A", "bound", "verdict")
	for _, wl := range names {
		for _, m := range b.EndToEnd {
			va, vb := sets[0][wl][m.Name], sets[1][wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-24s missing from a set\n", wl, m.Name)
				ok = false
				continue
			}
			ma, mb := medianFloat(va), medianFloat(vb)
			sa, sb := spread(va), spread(vb)
			diff := ratio(mb-ma, math.Abs(ma))
			verdict := "agree"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict, ok = "UNRESOLVED (spread above bound)", false
			case math.Abs(diff) >= m.Bound:
				verdict, ok = "DISAGREE", false
			}
			fmt.Fprintf(w, "%-12s %-24s %12.6g %6.1f%% %12.6g %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl, m.Name, ma, 100*sa, mb, 100*sb, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
