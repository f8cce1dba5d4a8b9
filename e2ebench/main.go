// Command e2ebench is the repository's end-to-end benchmark: it writes a
// seeded workload of tensor records once through codec.StreamWriter with
// the index footer on, reads it back four ways (sequential StreamReader,
// shuffled IndexedStream.DecodeAt, DecodeRange windows, fused
// codec.RoundTripInto), checks every output, and prints the metrics
// named in metrics.json. With -trace 1 it instead times each layer's
// public functions on the same records and reports the per-layer table.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload train-dctc --seed 1 --seconds 30 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 30
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

//go:embed metrics.json
var metricsJSON []byte

// metricDef is one metric of metrics.json; the other keys there (the
// definition, what it should move, where) are documentation.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type metricsDoc struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadMetrics() (metricsDoc, error) {
	var doc metricsDoc
	if err := json.Unmarshal(metricsJSON, &doc); err != nil {
		return doc, fmt.Errorf("metrics.json: %w", err)
	}
	return doc, nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// ops counts verified operations; every timed call and every check
// counts as one attempt.
type ops struct{ attempted, failed int64 }

func (o *ops) check(ok bool) bool {
	o.attempted++
	if !ok {
		o.failed++
	}
	return ok
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	outDir   string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name, or all: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measuring time per run")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	flag.StringVar(&o.outDir, "out", ".", "directory for the traced run's span file")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() != 0 || (trace != 0 && trace != 1) || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: bad arguments; see -h")
		os.Exit(2)
	}
	var err error
	if o.workload == "all" {
		err = runAll(o)
	} else {
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload and prints its result line.
func runOne(o options) error {
	doc, err := loadMetrics()
	if err != nil {
		return err
	}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s: spec %s, %d records, %.1f MB raw, seed %d, inputs sha256 %x\n",
		w.name, w.spec, len(w.records), float64(w.rawBytes())/1e6, o.seed, w.digest())
	deadline := time.Duration(o.seconds) * time.Second
	var vals map[string]float64
	var n ops
	if o.trace {
		vals, err = runTraced(w, o, deadline, &n)
	} else {
		vals, err = runEndToEnd(w, o.seed, deadline, &n)
	}
	if err != nil {
		return err
	}
	defs := doc.EndToEnd
	if o.trace {
		defs = doc.PerLayer
	}
	res := result{Correct: n.failed == 0, Attempted: n.attempted, Failed: n.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = value{v, d.Unit}
		fmt.Printf("  %-34s %14.4f %s\n", d.Name, v, d.Unit)
	}
	fmt.Printf("  failed_ops %d of %d\n", n.failed, n.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload in its own child process, so each reports
// its own peak RSS, and prints one table of all of them.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	results := map[string]result{}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	for _, name := range workloadNames {
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", trace, "-out", o.outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("workload %s: parsing result: %w", name, err)
		}
		results[name] = r
	}
	names := []string{}
	for n := range results[workloadNames[0]].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-34s", "metric")
	for _, w := range workloadNames {
		fmt.Printf(" %20s", w)
	}
	fmt.Println()
	for _, n := range names {
		fmt.Printf("%-34s", n+" ("+results[workloadNames[0]].Metrics[n].Unit+")")
		for _, w := range workloadNames {
			fmt.Printf(" %20.4f", results[w].Metrics[n].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-34s", "failed_ops")
	correct := true
	for _, w := range workloadNames {
		r := results[w]
		fmt.Printf(" %20s", fmt.Sprintf("%d of %d", r.Failed, r.Attempted))
		correct = correct && r.Correct
	}
	fmt.Println()
	line, err := json.Marshal(map[string]any{"correct": correct, "workloads": results})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
