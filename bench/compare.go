package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// set is the untraced runs of one -out file, grouped by workload.
type set struct {
	values map[string]map[string][]float64 // workload -> end-to-end metric -> one value per run
	failed map[string]int
}

func readSet(path string) (*set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &set{values: map[string]map[string][]float64{}, failed: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if rec.Traced {
			continue
		}
		if s.values[rec.Workload] == nil {
			s.values[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			s.values[rec.Workload][name] = append(s.values[rec.Workload][name], m.Value)
		}
		s.failed[rec.Workload] += rec.Failed
	}
	return s, sc.Err()
}

// verdict judges one end-to-end metric of one workload: B against the
// base A. A metric whose run-to-run spread in either set is wider than
// its bound cannot resolve a change of the bound's size, so it is
// reported unresolved rather than unchanged.
func verdict(def metricDef, a, b summary) (ratio float64, v string) {
	ratio = b.Median / a.Median
	worse := ratio - 1
	if def.better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case worse > def.bound:
		return ratio, "worse"
	case a.spread() > def.bound || b.spread() > def.bound:
		return ratio, "unresolved"
	default:
		return ratio, "ok"
	}
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians and quartiles, the ratio B/A and a verdict. It returns 1 if
// any metric got worse by more than its bound or B failed more
// operations than A, 0 otherwise.
func compareSets(w io.Writer, pathA, pathB string) int {
	a, err := readSet(pathA)
	if err == nil && len(a.values) == 0 {
		err = fmt.Errorf("%s holds no untraced runs", pathA)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	status := 0
	fmt.Fprintf(w, "%-14s %-14s %12s %25s %12s %25s %9s  %s\n",
		"workload", "metric", "A median", "A quartiles (n)", "B median", "B quartiles (n)", "B/A", "verdict")
	for _, spec := range workloads {
		av, bv := a.values[spec.name], b.values[spec.name]
		if av == nil || bv == nil {
			continue
		}
		for _, def := range endToEnd {
			if len(av[def.name]) == 0 || len(bv[def.name]) == 0 {
				continue
			}
			sa, sb := summarize(av[def.name]), summarize(bv[def.name])
			ratio, v := verdict(def, sa, sb)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(w, "%-14s %-14s %12.6g %25s %12.6g %25s %9.4f  %s (bound %.2f, %s is better)\n",
				spec.name, def.name,
				sa.Median, fmt.Sprintf("%.5g..%.5g (%d)", sa.Q1, sa.Q3, sa.N),
				sb.Median, fmt.Sprintf("%.5g..%.5g (%d)", sb.Q1, sb.Q3, sb.N),
				ratio, v, def.bound, def.better)
		}
		if b.failed[spec.name] > a.failed[spec.name] {
			status = 1
			fmt.Fprintf(w, "%-14s failed operations rose from %d to %d: worse\n",
				spec.name, a.failed[spec.name], b.failed[spec.name])
		}
	}
	return status
}
