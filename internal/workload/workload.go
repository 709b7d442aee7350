// Package workload describes the applications evaluated on the BlitzCoin
// SoCs (Sec. V-B, Fig. 14) as directed acyclic graphs of accelerator tasks.
//
// Two dataflow scenarios are modeled:
//
//   - Workload-Parallel (WL-Par): all accelerators run concurrently with no
//     data dependencies between tasks;
//   - Workload-Dependent (WL-Dep): tasks depend on one or more tasks on
//     other accelerators, as in a realistic application; only a subset of
//     tiles runs concurrently, which is why the paper evaluates WL-Dep at
//     half the WL-Par power budget.
//
// Two applications are provided, matching the evaluated SoCs (Fig. 12): an
// autonomous-vehicle application for the 3x3 SoC (FFT depth estimation,
// Viterbi vehicle-to-vehicle communication, NVDLA object detection — the
// Mini-ERA workload of [76]) and a computer-vision application for the 4x4
// SoC (Vision preprocessing, Conv2D feature extraction, GEMM
// classification).
package workload

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"blitzcoin/internal/rng"
)

// Task is one accelerator invocation.
type Task struct {
	ID    int
	Name  string
	Accel string // accelerator type: FFT, Viterbi, NVDLA, GEMM, Conv2D, Vision
	// WorkCycles is the task's length in accelerator clock cycles at
	// whatever frequency the tile runs; duration = WorkCycles / F.
	WorkCycles float64
	// Deps lists task IDs that must complete before this task starts.
	Deps []int
}

// Graph is a DAG of tasks. Build with the constructors and check with
// Validate; task IDs equal slice indices. The constructors' graphs and
// Repeat's chains of valid graphs are valid by construction, so neither
// checks them: the SoC runner validates the graph it runs, once.
//
// The six application graphs are built once per process and shared, so
// they and every slice in them are read-only: Repeat copies what it
// chains, and a run never writes the graph it runs.
type Graph struct {
	Name  string
	Tasks []Task
}

// Validate checks ID consistency, dependency existence, positive work, and
// acyclicity.
func (g *Graph) Validate() error {
	backward := true // every dependency has a lower ID
	for i, t := range g.Tasks {
		if t.ID != i {
			return fmt.Errorf("workload %s: task %d has ID %d", g.Name, i, t.ID)
		}
		if t.WorkCycles <= 0 {
			return fmt.Errorf("workload %s: task %q has non-positive work", g.Name, t.Name)
		}
		if t.Accel == "" {
			return fmt.Errorf("workload %s: task %q has no accelerator type", g.Name, t.Name)
		}
		for _, d := range t.Deps {
			if d < 0 || d >= len(g.Tasks) {
				return fmt.Errorf("workload %s: task %q depends on unknown task %d", g.Name, t.Name, d)
			}
			if d == i {
				return fmt.Errorf("workload %s: task %q depends on itself", g.Name, t.Name)
			}
			backward = backward && d < i
		}
	}
	if backward {
		return nil // a cycle needs a dependency on a higher ID
	}
	// Kahn's algorithm detects cycles.
	indeg := make([]int, len(g.Tasks))
	for _, t := range g.Tasks {
		for range t.Deps {
			indeg[t.ID]++
		}
	}
	queue := []int{}
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	adj := make([][]int, len(g.Tasks)) // dep -> dependents
	for _, t := range g.Tasks {
		for _, d := range t.Deps {
			adj[d] = append(adj[d], t.ID)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		seen++
		for _, v := range adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if seen != len(g.Tasks) {
		return fmt.Errorf("workload %s: dependency cycle", g.Name)
	}
	return nil
}

// Ready appends to out the IDs of tasks that are not done and whose
// dependencies all are, in ID order, and returns the extended slice. done
// is indexed by task ID.
func (g *Graph) Ready(done []bool, out []int) []int {
	for _, t := range g.Tasks {
		if done[t.ID] {
			continue
		}
		ok := true
		for _, d := range t.Deps {
			if !done[d] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t.ID)
		}
	}
	return out
}

// TotalWork returns the sum of all task work in cycles.
func (g *Graph) TotalWork() float64 {
	var w float64
	for _, t := range g.Tasks {
		w += t.WorkCycles
	}
	return w
}

// CriticalPathWork returns the work along the longest dependency chain —
// the lower bound on execution time at Fmax (scaled by 1/Fmax).
func (g *Graph) CriticalPathWork() float64 {
	memo := make([]float64, len(g.Tasks))
	computed := make([]bool, len(g.Tasks))
	var longest func(i int) float64
	longest = func(i int) float64 {
		if computed[i] {
			return memo[i]
		}
		var best float64
		for _, d := range g.Tasks[i].Deps {
			if v := longest(d); v > best {
				best = v
			}
		}
		memo[i] = best + g.Tasks[i].WorkCycles
		computed[i] = true
		return memo[i]
	}
	var max float64
	for i := range g.Tasks {
		if v := longest(i); v > max {
			max = v
		}
	}
	return max
}

// AccelCounts returns how many tasks target each accelerator type.
func (g *Graph) AccelCounts() map[string]int {
	out := map[string]int{}
	for _, t := range g.Tasks {
		out[t.Accel]++
	}
	return out
}

// spec is a shorthand used by the builders.
type spec struct {
	name  string
	accel string
	work  float64
	deps  []int
}

func build(name string, specs []spec) *Graph {
	g := &Graph{Name: name, Tasks: make([]Task, len(specs))}
	for i, s := range specs {
		g.Tasks[i] = Task{ID: i, Name: s.name, Accel: s.accel, WorkCycles: s.work, Deps: s.deps}
	}
	return g
}

// Task work sizes, in accelerator cycles. At the hundreds-of-MHz clocks of
// Fig. 13 these give per-task durations in the hundreds of microseconds,
// matching the ~2500 us RTL simulations of the artifact.
const (
	fftWork     = 45e3 // one depth-estimation FFT batch
	viterbiWork = 36e3 // one V2V decode window
	nvdlaWork   = 60e3 // one detection inference
	visionWork  = 36e3 // noise filter + hist-eq + DWT on one frame
	convWork    = 56e3 // one conv-layer batch
	gemmWork    = 48e3 // one FC/classifier batch
)

// AutonomousVehicleParallel returns the WL-Par scenario of the 3x3 SoC: all
// six accelerators (3 FFT, 2 Viterbi, 1 NVDLA) run concurrently.
func AutonomousVehicleParallel() *Graph { return avParallel() }

var avParallel = sync.OnceValue(buildAVParallel)

func buildAVParallel() *Graph {
	return build("av-parallel", []spec{
		{"fft-radar-0", "FFT", fftWork, nil},
		{"fft-radar-1", "FFT", fftWork, nil},
		{"fft-radar-2", "FFT", fftWork, nil},
		{"vit-v2v-rx0", "Viterbi", viterbiWork, nil},
		{"vit-v2v-rx1", "Viterbi", viterbiWork, nil},
		{"nvdla-detect", "NVDLA", nvdlaWork, nil},
	})
}

// AutonomousVehicleDependent returns the WL-Dep scenario of the 3x3 SoC
// (Fig. 14 right): radar FFTs feed object detection, whose output gates the
// outgoing V2V messages, across two consecutive frames.
func AutonomousVehicleDependent() *Graph { return avDependent() }

var avDependent = sync.OnceValue(buildAVDependent)

func buildAVDependent() *Graph {
	return build("av-dependent", []spec{
		// Frame 0.
		{"f0-fft-0", "FFT", fftWork, nil},
		{"f0-fft-1", "FFT", fftWork, nil},
		{"f0-vit-rx", "Viterbi", viterbiWork, nil},
		{"f0-nvdla", "NVDLA", nvdlaWork, []int{0, 1}},
		{"f0-vit-tx", "Viterbi", viterbiWork, []int{2, 3}},
		// Frame 1 begins after frame 0's detection.
		{"f1-fft-0", "FFT", fftWork, []int{3}},
		{"f1-fft-1", "FFT", fftWork, []int{3}},
		{"f1-vit-rx", "Viterbi", viterbiWork, []int{4}},
		{"f1-nvdla", "NVDLA", nvdlaWork, []int{5, 6}},
		{"f1-vit-tx", "Viterbi", viterbiWork, []int{7, 8}},
	})
}

// ComputerVisionParallel returns the WL-Par scenario of the 4x4 SoC: 13
// concurrent tasks, one per accelerator tile (4 Vision, 5 GEMM, 4 Conv2D).
func ComputerVisionParallel() *Graph { return cvParallel() }

var cvParallel = sync.OnceValue(buildCVParallel)

func buildCVParallel() *Graph {
	var specs []spec
	for i := 0; i < 4; i++ {
		specs = append(specs, spec{fmt.Sprintf("vision-%d", i), "Vision", visionWork, nil})
	}
	for i := 0; i < 4; i++ {
		specs = append(specs, spec{fmt.Sprintf("conv-%d", i), "Conv2D", convWork, nil})
	}
	for i := 0; i < 5; i++ {
		specs = append(specs, spec{fmt.Sprintf("gemm-%d", i), "GEMM", gemmWork, nil})
	}
	return build("cv-parallel", specs)
}

// ComputerVisionDependent returns the WL-Dep scenario of the 4x4 SoC: a
// night-vision/denoise/classify pipeline where each frame's Vision
// preprocessing feeds Conv2D feature extraction and then GEMM
// classification.
func ComputerVisionDependent() *Graph { return cvDependent() }

var cvDependent = sync.OnceValue(buildCVDependent)

func buildCVDependent() *Graph {
	var specs []spec
	// Four camera streams preprocess in parallel.
	for i := 0; i < 4; i++ {
		specs = append(specs, spec{fmt.Sprintf("vision-%d", i), "Vision", visionWork, nil})
	}
	// Each stream's conv depends on its preprocessing.
	for i := 0; i < 4; i++ {
		specs = append(specs, spec{fmt.Sprintf("conv-%d", i), "Conv2D", convWork, []int{i}})
	}
	// Classification: one GEMM per stream plus a fusion GEMM over all.
	for i := 0; i < 4; i++ {
		specs = append(specs, spec{fmt.Sprintf("gemm-%d", i), "GEMM", gemmWork, []int{4 + i}})
	}
	specs = append(specs, spec{"gemm-fuse", "GEMM", gemmWork, []int{8, 9, 10, 11}})
	return build("cv-dependent", specs)
}

// SevenAcceleratorParallel returns the concurrent variant of the silicon
// workload: all seven accelerators of the PM cluster active at once, the
// phase over which the paper measures the 97% budget utilization (Fig. 19
// top shows the seven tiles running simultaneously with staggered ends).
func SevenAcceleratorParallel() *Graph { return silicon7Par() }

var silicon7Par = sync.OnceValue(buildSilicon7Par)

func buildSilicon7Par() *Graph {
	return build("silicon-7acc-par", []spec{
		{"fft-0", "FFT", fftWork, nil},
		{"fft-1", "FFT", fftWork, nil},
		{"vit-0", "Viterbi", viterbiWork, nil},
		{"vit-1", "Viterbi", viterbiWork, nil},
		{"nvdla", "NVDLA", nvdlaWork, nil},
		{"vit-2", "Viterbi", viterbiWork, nil},
		{"vit-3", "Viterbi", viterbiWork, nil},
	})
}

// SevenAcceleratorSilicon returns the workload measured on the fabricated
// 12 nm SoC (Sec. V-D): one NVDLA, two FFT, and four Viterbi accelerators in
// the PM cluster, invoked by one CVA6 core. Dependencies follow the
// autonomous-vehicle structure.
func SevenAcceleratorSilicon() *Graph { return silicon7() }

var silicon7 = sync.OnceValue(buildSilicon7)

func buildSilicon7() *Graph {
	return build("silicon-7acc", []spec{
		{"fft-0", "FFT", fftWork, nil},
		{"fft-1", "FFT", fftWork, nil},
		{"vit-0", "Viterbi", viterbiWork, nil},
		{"vit-1", "Viterbi", viterbiWork, nil},
		{"nvdla", "NVDLA", nvdlaWork, []int{0, 1}},
		{"vit-2", "Viterbi", viterbiWork, []int{2, 4}},
		{"vit-3", "Viterbi", viterbiWork, []int{3, 4}},
	})
}

// SiliconSubset returns the n-accelerator variants (n = 3, 4, 5) of the
// silicon workload used for the throughput comparison of Sec. VI-C.
func SiliconSubset(n int) *Graph {
	switch n {
	case 3:
		return build("silicon-3acc", []spec{
			{"fft-0", "FFT", fftWork, nil},
			{"vit-0", "Viterbi", viterbiWork, nil},
			{"nvdla", "NVDLA", nvdlaWork, []int{0}},
		})
	case 4:
		return build("silicon-4acc", []spec{
			{"fft-0", "FFT", fftWork, nil},
			{"fft-1", "FFT", fftWork, nil},
			{"vit-0", "Viterbi", viterbiWork, nil},
			{"nvdla", "NVDLA", nvdlaWork, []int{0, 1}},
		})
	case 5:
		return build("silicon-5acc", []spec{
			{"fft-0", "FFT", fftWork, nil},
			{"fft-1", "FFT", fftWork, nil},
			{"vit-0", "Viterbi", viterbiWork, nil},
			{"nvdla", "NVDLA", nvdlaWork, []int{0, 1}},
			{"vit-1", "Viterbi", viterbiWork, []int{2, 3}},
		})
	default:
		panic(fmt.Sprintf("workload: no %d-accelerator silicon subset", n))
	}
}

// RandomDAG generates a seeded random workload over the given accelerator
// types: n tasks with work drawn uniformly from [minWork, maxWork] and up
// to maxDeps backward dependencies each (guaranteeing acyclicity by only
// depending on earlier task IDs). Used for stress-testing the SoC harness
// beyond the paper's fixed applications.
func RandomDAG(src *rng.Source, n int, accels []string, minWork, maxWork float64, maxDeps int) *Graph {
	if n <= 0 || len(accels) == 0 || minWork <= 0 || maxWork < minWork || maxDeps < 0 {
		panic("workload: invalid RandomDAG parameters")
	}
	g := &Graph{Name: fmt.Sprintf("random-%d", n)}
	for i := 0; i < n; i++ {
		t := Task{
			ID:         i,
			Name:       fmt.Sprintf("rand-%d", i),
			Accel:      accels[src.Intn(len(accels))],
			WorkCycles: minWork + src.Float64()*(maxWork-minWork),
		}
		if i > 0 && maxDeps > 0 {
			nd := src.Intn(maxDeps + 1)
			seen := map[int]bool{}
			for k := 0; k < nd; k++ {
				d := src.Intn(i)
				if !seen[d] {
					seen[d] = true
					t.Deps = append(t.Deps, d)
				}
			}
		}
		g.Tasks = append(g.Tasks, t)
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// Repeat chains k copies of g sequentially: every task of copy i+1 that has
// no dependencies acquires a dependency on every sink of copy i, modeling
// back-to-back frames. The chain of a valid graph is valid; Repeat does
// not validate either. It only reads g. The chain takes a fixed number of
// allocations, whatever k and the size of g: its tasks, one array every
// task's Deps is a window of, and one string every task's Name is a
// substring of (copy c of a task is named "i<c>-" plus its name).
func Repeat(g *Graph, k int) *Graph {
	if k <= 0 {
		panic("workload: Repeat needs k >= 1")
	}
	n := len(g.Tasks)
	// Sinks of one copy: tasks no other task depends on. Roots, the tasks
	// with no dependencies, wait on every sink of the copy before.
	isDep := make([]bool, n)
	deps, roots, nameBytes := 0, 0, 0
	for _, t := range g.Tasks {
		for _, d := range t.Deps {
			isDep[d] = true
		}
		deps += len(t.Deps)
		if len(t.Deps) == 0 {
			roots++
		}
		nameBytes += len(t.Name)
	}
	var sinks []int
	for i := range g.Tasks {
		if !isDep[i] {
			sinks = append(sinks, i)
		}
	}

	var prefix [24]byte // "i<c>-" for copy c
	copyPrefix := func(c int) []byte {
		return append(strconv.AppendInt(append(prefix[:0], 'i'), int64(c), 10), '-')
	}
	var names strings.Builder
	size := k * nameBytes
	for c := 0; c < k; c++ {
		size += n * len(copyPrefix(c))
	}
	names.Grow(size)
	for c := 0; c < k; c++ {
		p := copyPrefix(c)
		for _, t := range g.Tasks {
			names.Write(p)
			names.WriteString(t.Name)
		}
	}
	all := names.String()

	out := &Graph{Name: g.Name + "-x" + strconv.Itoa(k), Tasks: make([]Task, k*n)}
	depSlab := make([]int, 0, k*deps+(k-1)*roots*len(sinks))
	off := 0
	for c := 0; c < k; c++ {
		base := c * n
		p := len(copyPrefix(c))
		for i, t := range g.Tasks {
			from := len(depSlab)
			for _, d := range t.Deps {
				depSlab = append(depSlab, base+d)
			}
			if c > 0 && len(t.Deps) == 0 {
				for _, s := range sinks {
					depSlab = append(depSlab, base-n+s)
				}
			}
			nt := &out.Tasks[base+i]
			*nt = Task{
				ID:         base + t.ID,
				Name:       all[off : off+p+len(t.Name)],
				Accel:      t.Accel,
				WorkCycles: t.WorkCycles,
			}
			if to := len(depSlab); to > from {
				nt.Deps = depSlab[from:to:to]
			}
			off += p + len(t.Name)
		}
	}
	return out
}
