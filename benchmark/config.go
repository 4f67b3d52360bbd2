package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The run shape. It is the same for every workload and on every commit,
// so it is fixed here and recorded in the result file's provenance:
// changing any of it changes what is measured.
const (
	// numClients is the number of closed-loop callers of a measured run.
	numClients = 2
	// measuredSlices is how many slices of slice_requests a run measures;
	// every end-to-end metric is the median over them. A warm-up of a
	// quarter of a slice runs first and is discarded.
	measuredSlices = 5
	// setupRepeats is how many times set-up is performed; setup_s is the
	// median.
	setupRepeats = 15
	// flushModel is the modelled duration of one Sync().
	flushModel = 200 * time.Microsecond
	// ladderRequests is how many requests each ladder rung replays.
	ladderRequests = 20000
	// traceMaxRequests bounds the traced slice so its spans fit in memory.
	traceMaxRequests = 100000
	// traceDumpRequests is how many requests' spans -trace-out keeps.
	traceDumpRequests = 2000
	// gatewayShards is the number of memory shards behind the gateway.
	gatewayShards = 3
	// setRuns is how many untraced runs of every workload a run over
	// every workload makes, each with the next seed.
	setRuns = 3
)

// sizing is what the smoke run makes smaller, in code; a measured run
// always uses fullSize.
type sizing struct {
	setupRepeats   int
	ladderRequests int
	bankTemplates  int // period scripts the seed decides
	taxTemplates   int // process scripts the seed decides
}

var (
	fullSize  = sizing{setupRepeats: setupRepeats, ladderRequests: ladderRequests, bankTemplates: 64, taxTemplates: 1024}
	smokeSize = sizing{setupRepeats: 1, ladderRequests: ladderRequests / 50, bankTemplates: 4, taxTemplates: 64}
)

// benchmarkSpec is BENCHMARK.json at the root of the repository: the
// contract the driver reads. The benchmark reads it too, so the names,
// units, directions and bounds it reports and compares with cannot
// drift from what is declared.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadsFile is benchmark/workloads.json: the named workloads,
// declared as data.
type workloadsFile struct {
	Workloads []workloadSpec `json:"workloads"`
}

type workloadSpec struct {
	Name   string         `json:"name"`
	Why    string         `json:"why"`
	Config workloadConfig `json:"config"`
}

// Systems a workload can drive its requests into.
const (
	systemInproc  = "inproc"  // one pdp.PDP called directly, memory ADI
	systemShard   = "shard"   // one shard as msodd -adi -adi-sync -trail -handoff runs it, over loopback HTTP
	systemGateway = "gateway" // msodgw's gateway over gatewayShards memory shards
)

// workloadConfig holds what differs between workloads, and nothing else.
type workloadConfig struct {
	System string `json:"system"`
	// BankShare is the share of requests drawn from the bank family;
	// the rest are tax-refund steps.
	BankShare float64 `json:"bank_share"`
	// CredentialEvery makes one request in N carry the user's signed
	// role credential instead of pre-validated roles (0 = none).
	CredentialEvery int `json:"credential_every,omitempty"`
	// SliceRequests is the number of requests in one measured slice of a
	// run of run_seconds (BENCHMARK.json), sized to about run_seconds /
	// measuredSlices at the commit that introduced the benchmark. The
	// work of a run is this count, not a duration: every commit answers
	// the same requests and reaches the same retained-ADI state. Another
	// --seconds scales it in proportion.
	SliceRequests int `json:"slice_requests"`
}

func (c workloadConfig) validate() error {
	switch c.System {
	case systemInproc, systemShard, systemGateway:
	default:
		return fmt.Errorf("system %q is not one of %s, %s, %s", c.System, systemInproc, systemShard, systemGateway)
	}
	if c.BankShare < 0 || c.BankShare > 1 {
		return fmt.Errorf("bank_share %v is outside 0..1", c.BankShare)
	}
	if c.CredentialEvery < 0 {
		return fmt.Errorf("credential_every %d is negative", c.CredentialEvery)
	}
	if c.SliceRequests < 1 {
		return fmt.Errorf("slice_requests %d is not positive", c.SliceRequests)
	}
	return nil
}

func loadJSON(path string, into any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadWorkloads reads workloads.json. A field the benchmark does not
// know is a mistake (a misspelt or removed setting would otherwise be
// silently ignored), and every value is checked.
func loadWorkloads(path string) (*workloadsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var wf workloadsFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range wf.Workloads {
		if err := w.Config.validate(); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", path, w.Name, err)
		}
	}
	return &wf, nil
}

// loadConfig reads BENCHMARK.json and benchmark/workloads.json from the
// root of the checkout (the directory the benchmark is run from) and
// checks that they name the same workloads.
func loadConfig(root string) (*benchmarkSpec, *workloadsFile, error) {
	var spec benchmarkSpec
	if err := loadJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		return nil, nil, err
	}
	if spec.RunSeconds < 1 {
		return nil, nil, fmt.Errorf("BENCHMARK.json: run_seconds %d is not positive", spec.RunSeconds)
	}
	wf, err := loadWorkloads(filepath.Join(root, "benchmark", "workloads.json"))
	if err != nil {
		return nil, nil, err
	}
	if len(spec.Workloads) != len(wf.Workloads) {
		return nil, nil, fmt.Errorf("BENCHMARK.json names %d workloads, workloads.json %d", len(spec.Workloads), len(wf.Workloads))
	}
	for i, w := range spec.Workloads {
		if wf.Workloads[i].Name != w.Name {
			return nil, nil, fmt.Errorf("workload %d is %q in BENCHMARK.json but %q in workloads.json", i, w.Name, wf.Workloads[i].Name)
		}
	}
	return &spec, wf, nil
}

func (wf *workloadsFile) workload(name string) (workloadSpec, error) {
	for _, w := range wf.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}
