package main

import "sort"

// shape is what the traced pass needs to know about a workload to replay its
// inputs through every layer at that workload's sizes.
type shape struct {
	k, z   int
	budget int     // streaming working-memory budget (mu*(k+z) for the MapReduce workloads)
	batch  int     // points per write
	drift  float64 // generator drift per point
	json   bool    // writes travel as JSON instead of KCFL
	ell    int     // MapReduce partitions for the pipeline replay
	mu     int     // coreset multiplier for the pipeline replay
	// k and z of the outlier-layer replays; the workload's own where it has
	// outliers, the streaming workload's otherwise.
	kOut, zOut int
}

// workload is one entry of the fixed workload table.
type workload struct {
	name     string
	shape    shape
	stream   string    // generator stream the traced pass takes its prefix from
	genBatch int       // generator batch size of that stream
	mr       *mrParams // set for the MapReduce workloads
	run      func(*env) (*result, error)
}

// Stream workloads drift every blob by this much per point. Calibrated so the
// doubling coreset keeps merging and stays well filled (the fill is checked
// by gen's tests and reported as streaming.working_memory_points).
const (
	driftSmallBudget = 5e-4 // budgets around 300
	driftLargeBudget = 4e-3 // budget 2048
)

var workloads = map[string]*workload{}

func register(w *workload) {
	if w.shape.kOut == 0 {
		w.shape.kOut, w.shape.zOut = libK, libZ
	}
	if w.genBatch == 0 {
		w.genBatch = w.shape.batch
	}
	workloads[w.name] = w
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
