// Command benchmark is the repository's one end-to-end benchmark: five
// named workloads driven through the chimera facade only, end-to-end
// metrics taken with every instrument off, and a second, traced pass that
// attributes the cost to layers from outside the engine. README.md in this
// directory defines every workload and metric.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	benchmark [--seed <n>] [--seconds <s>] [--out <dir>]     all workloads, both passes
//	benchmark --compare a.json b.json
//
// It is run from the root of the checkout, where BENCHMARK.json declares
// the workloads and the metrics it must emit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is what a pass of a workload is run with.
type config struct {
	decl    *declaration
	seed    int64
	seconds float64
	smoke   bool
	tmp     string // where store directories are made ("" = the system's)
	out     string // where trace files go ("" = nowhere)
}

// phase is a share of the run's measuring time.
func (c *config) phase(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// A pass sets its workload up several times and reports the median set-up
// time: at least setupMin times, then until setupFor has gone by, setupMax
// times at most (a set-up of a millisecond is dominated by fsync, and its
// median needs the 200). The last set-up is the one measured on.
const (
	setupMin = 7
	setupMax = 200
	setupFor = time.Second
)

// setUp repeats open as described above, discarding every database but the
// last, and returns that one with the median set-up time in seconds.
func setUp[T interface{ discard() error }](c *config, open func() (T, error)) (h T, seconds float64, err error) {
	var times []float64
	start := time.Now()
	for i := 0; i < setupMax && (i < setupMin || time.Since(start) < setupFor); i++ {
		if c.smoke && i > 0 {
			break
		}
		if i > 0 {
			if err = h.discard(); err != nil {
				return h, 0, err
			}
		}
		// What the discarded database left behind is collected first, so that
		// no collection of it runs beside the set-up being timed.
		runtime.GC()
		t0 := time.Now()
		if h, err = open(); err != nil {
			return h, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return h, median(times), nil
}

// outcome is what one pass of one workload measured.
type outcome struct {
	values    map[string]float64
	attempted int64 // units of work attempted in the measured phases
	failed    int64 // of those, failed
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// windowLen is the length of the windows a measured phase is cut into. A
// metric of the phase is the median of its values over the windows, which a
// stall of the sandbox cannot move; a phase too short for minWindows of
// them (a smoke run) is cut into minWindows shorter ones.
const (
	windowLen  = 500 * time.Millisecond
	minWindows = 5
)

func windows(phase time.Duration) int { return max(minWindows, int(phase/windowLen)) }

// window is the work one window of a saturation phase completed.
type window struct {
	n int64
	u usage
}

// rate is the window's units of work per second.
func (w window) rate() float64 { return float64(w.n) / w.u.wall.Seconds() }

// usage sets the four saturation-phase metrics: the median over the
// windows of units per second, CPU, allocations and bytes per unit.
func (o *outcome) usage(ws []window) {
	var tput, cpu, allocs, bytes []float64
	for _, w := range ws {
		if w.n == 0 {
			continue
		}
		n := float64(w.n)
		tput = append(tput, w.rate())
		cpu = append(cpu, us(w.u.cpu.Nanoseconds())/n)
		allocs = append(allocs, float64(w.u.mallocs)/n)
		bytes = append(bytes, float64(w.u.bytes)/n)
	}
	o.set("throughput_ops_s", median(tput))
	o.set("cpu_us_per_op", median(cpu))
	o.set("allocs_per_op", median(allocs))
	o.set("alloc_bytes_per_op", median(bytes))
}

// tail sets the unbounded latency percentiles of the traced pass's open
// loop at r2, with the sample count: a percentile is worth reading when at
// least ten samples lie beyond it (200 for p95, 1 000 for p99).
func (o *outcome) tail(samples []int64) {
	all := append([]int64(nil), samples...)
	o.set("gen.latency_samples", float64(len(all)))
	o.set("gen.latency_p50_ms", ms(quantile(all, 0.5)))
	o.set("gen.latency_p95_ms", ms(quantile(all, 0.95)))
	o.set("gen.latency_p99_ms", ms(quantile(all, 0.99)))
}

// workload is one of the five named workloads.
type workload interface {
	// e2e is the untraced pass; it fills every end-to-end metric.
	e2e(c *config) (*outcome, error)
	// layers is the traced pass; it fills every per-layer metric that
	// applies to the workload.
	layers(c *config) (*outcome, error)
}

// result is the JSON a pass prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render turns an outcome into the declared metric list of its pass. A
// per-layer metric the workload does not exercise reads 0; an end-to-end
// metric that is missing, zero or not finite is an error.
func render(o *outcome, defs []declaredMetric, endToEnd bool) (result, error) {
	r := result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is not finite", d.Name)
		}
		if endToEnd && (!ok || v == 0) {
			return r, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range o.values {
		if _, ok := r.Metrics[name]; !ok {
			return r, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	if r.Attempted < 1 {
		return r, fmt.Errorf("no unit of work attempted")
	}
	return r, nil
}

func printTable(w *os.File, title string, r result) {
	fmt.Fprintf(w, "%s\n", title)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
}

// runPass runs one pass of one workload and renders it.
func runPass(name string, traced bool, c *config) (result, error) {
	w, ok := workloads[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", name)
	}
	if traced {
		o, err := w.layers(c)
		if err != nil {
			return result{}, err
		}
		return render(o, c.decl.PerLayer, false)
	}
	o, err := w.e2e(c)
	if err != nil {
		return result{}, err
	}
	return render(o, c.decl.EndToEnd, true)
}

// envelope describes the machine and the run; it heads the result file of
// an all-workloads run.
type envelope struct {
	GoVersion  string  `json:"go_version"`
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// resultFile is what an all-workloads run writes and -compare reads.
type resultFile struct {
	Envelope envelope                          `json:"envelope"`
	EndToEnd map[string]map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]map[string]metricValue `json:"per_layer"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 10, "measuring time of one pass")
		trace   = flag.Int("trace", 0, "with -workload: 0 = end-to-end pass, 1 = traced per-layer pass")
		smoke   = flag.Bool("smoke", false, "shortest run that still emits every metric (0.3 s phases)")
		out     = flag.String("out", "", "directory for trace-<workload>.json and result.json")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	decl, err := readDeclaration()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(decl, flag.Arg(0), flag.Arg(1))
	}
	c := &config{decl: decl, seed: *seed, seconds: *seconds, smoke: *smoke, out: *out}
	if c.smoke {
		c.seconds = 0.6
	}
	if c.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}
	tmp, err := os.MkdirTemp("", "chimera-benchmark-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	c.tmp = tmp
	if c.out != "" {
		if err := os.MkdirAll(c.out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}

	if *name != "all" {
		r, err := runPass(*name, *trace == 1, c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printTable(os.Stdout, fmt.Sprintf("%s seed=%d seconds=%g trace=%d", *name, c.seed, c.seconds, *trace), r)
		line, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
		return 0
	}

	file := resultFile{
		Envelope: envelope{GoVersion: runtime.Version(), Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed: c.seed, Seconds: c.seconds},
		EndToEnd: map[string]map[string]metricValue{},
		PerLayer: map[string]map[string]metricValue{},
	}
	for _, w := range decl.Workloads {
		wl := w.Name
		for _, tr := range []bool{false, true} {
			r, err := runPass(wl, tr, c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if tr {
				file.PerLayer[wl] = r.Metrics
				printTable(os.Stdout, wl+" (traced pass)", r)
			} else {
				file.EndToEnd[wl] = r.Metrics
				printTable(os.Stdout, wl, r)
			}
		}
	}
	data, err := json.Marshal(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if c.out != "" {
		if err := os.WriteFile(c.out+"/result.json", data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Println(string(data))
	return 0
}
