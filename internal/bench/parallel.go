package bench

import (
	"runtime"

	"kindle/internal/core"
)

// workers resolves Options.Parallel: values <= 0 mean one worker per
// available CPU.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// forEachTask is core.ForEachIndexed over opt's worker pool plus progress
// accounting: the n grid cells are registered with opt.Progress up front,
// and each one is tracked (label, wall-clock duration) while it runs — the
// feed behind /progress and the live ETA. Grid fan-outs should prefer this
// over core.ForEachIndexed whenever the indices are meaningful units of
// work; with no Tracker attached it degenerates to core.ForEachIndexed.
func forEachTask(opt Options, n int, label func(i int) string, fn func(i int) error) error {
	tr := opt.Progress
	tr.AddTasks(n)
	tr.SetWorkers(opt.workers())
	return core.ForEachIndexed(opt.workers(), n, func(i int) error {
		id := tr.taskStarted(label(i))
		defer tr.taskFinished(id)
		return fn(i)
	})
}
