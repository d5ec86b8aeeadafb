package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// declaration is BENCHMARK.json, as far as the benchmark reads it: the one
// list of the workloads to run and of the metrics a pass must emit, with
// their units and bounds.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readDeclaration reads BENCHMARK.json from the working directory, which
// is the root of the checkout for the declared command and the benchmark's
// own directory for go test and go run.
func readDeclaration() (*declaration, error) {
	var d declaration
	err := readJSON("BENCHMARK.json", &d)
	if errors.Is(err, os.ErrNotExist) {
		err = readJSON("../BENCHMARK.json", &d)
	}
	return &d, err
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, into)
}

// compareFiles prints, per workload and end-to-end metric, the values of
// two result files, by how much the second is worse than the first (as a
// share of the first; negative is better) and the bound BENCHMARK.json
// allows. It returns 1 if any metric of the second file is worse by more
// than its bound. Two runs of one commit agree when the comparison passes
// in both directions.
func compareFiles(decl *declaration, pathA, pathB string) int {
	var a, b resultFile
	if err := errors.Join(readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	exceeded := 0
	fmt.Printf("a = %s\nb = %s\n", pathA, pathB)
	fmt.Printf("%-14s %-20s %14s %14s %8s %6s\n", "workload", "metric", "a", "b", "b worse", "bound")
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			va, okA := a.EndToEnd[w.Name][m.Name]
			vb, okB := b.EndToEnd[w.Name][m.Name]
			if !okA || !okB || va.Value == 0 {
				fmt.Printf("%-14s %-20s missing\n", w.Name, m.Name)
				exceeded++
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				worse = -worse
			}
			flag := ""
			if worse > m.Bound {
				flag = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %+7.1f%% %5.0f%%%s\n",
				w.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, flag)
		}
	}
	if exceeded > 0 {
		fmt.Printf("%d metric(s) worse than their bound\n", exceeded)
		return 1
	}
	return 0
}
