package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
	"threadcluster/internal/metrics"
)

// Spool format: one JSON JobSpec per file, named
// "<zero-padded seq>-<job id>.json" so lexical directory order is
// admission order. The files are plain specs — replayable by hand with
// `tcsim submit -spec file.json` as well as by a restarting server —
// and because a job's result is a pure function of its spec, a re-run
// after restart produces the byte-identical payload the original
// admission would have.
//
// Checkpoint format: one JSON CheckpointFile per running job, named
// "<job id>.ckpt" beside the spool specs. A checkpoint carries the
// normalized spec plus every completed grid cell's metrics snapshot;
// grid cells are independent machines with spec-derived seeds
// (sweep.DeriveSeed), so a resumed job restores the recorded cells and
// re-runs only the missing ones, producing the byte-identical payload
// an uninterrupted run yields. Checkpoints are flushed every
// Options.CheckpointEvery completed cells and when a graceful drain
// cuts a running job; a job that settles normally deletes its file.
//
// Files that fail to parse or validate at re-admission are quarantined:
// renamed to "<name>.quarantine", recorded as an errs.ErrSpoolCorrupt
// warning (SpoolWarnings), counted in server_spool_quarantined_total —
// and the daemon keeps starting.
//
// The checkpoint codec — CheckpointFile, ValidateCells,
// WriteCheckpoint, Quarantine — is shared with the fleet coordinator,
// whose ".fleetckpt" files carry the same JSON.

const (
	checkpointSuffix = ".ckpt"
	spoolSuffix      = ".json"
	// QuarantineSuffix is appended to a corrupt spool or checkpoint
	// file's name when Quarantine renames it aside.
	QuarantineSuffix = ".quarantine"
)

// CheckpointFile is the on-disk form of a running job's progress.
type CheckpointFile struct {
	// Spec is the job's normalized spec; the grid (and every cell seed)
	// derives from it.
	Spec JobSpec `json:"spec"`
	// Cells lists the completed grid cells in grid-index order.
	Cells []CheckpointCell `json:"cells"`
}

// CheckpointCell is one completed grid cell: its position, identity and
// the metrics snapshot the re-assembled payload will carry for it.
type CheckpointCell struct {
	Index   int              `json:"index"`
	Name    string           `json:"name"`
	Seed    int64            `json:"seed"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// spool persists queued-but-unstarted jobs (in admission order) to
// Options.SpoolDir. A nil SpoolDir drops them (the jobs were never
// started; their specs are the client's to resubmit).
func (s *Server) spool(queued []*job) error {
	if s.opt.SpoolDir == "" || len(queued) == 0 {
		return nil
	}
	if err := os.MkdirAll(s.opt.SpoolDir, 0o777); err != nil {
		return fmt.Errorf("server: creating spool dir: %w", err)
	}
	for i, j := range queued {
		data, err := json.MarshalIndent(j.spec, "", "  ")
		if err != nil {
			return fmt.Errorf("server: spooling job %q: %w", j.spec.ID, err)
		}
		name := fmt.Sprintf("%08d-%s%s", i, j.spec.ID, spoolSuffix)
		if err := os.WriteFile(filepath.Join(s.opt.SpoolDir, name), append(data, '\n'), 0o666); err != nil {
			return fmt.Errorf("server: spooling job %q: %w", j.spec.ID, err)
		}
		s.mJobsSpooled.Inc()
	}
	return nil
}

// loadSpool re-admits persisted work found in SpoolDir: checkpoints of
// cut-down running jobs first (they were admitted before anything that
// was still queued at shutdown), then spooled specs, each group in
// lexical (= original admission) order. Spec files are deleted once
// their job is back in the queue; checkpoint files stay until the
// resumed job settles, so a crash between re-admission and completion
// still resumes. Jobs that no longer fit (queue depth, token pool)
// remain on disk for the next start. Files that fail to parse or
// validate are quarantined and reported through SpoolWarnings — a
// corrupt file never stops the daemon from starting.
func (s *Server) loadSpool() error {
	if s.opt.SpoolDir == "" {
		return nil
	}
	entries, err := os.ReadDir(s.opt.SpoolDir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: reading spool dir: %w", err)
	}
	var ckpts, specs []string
	for _, e := range entries {
		switch {
		case e.IsDir():
		case strings.HasSuffix(e.Name(), checkpointSuffix):
			ckpts = append(ckpts, e.Name())
		case strings.HasSuffix(e.Name(), spoolSuffix):
			specs = append(specs, e.Name())
		}
	}
	sort.Strings(ckpts)
	sort.Strings(specs)

	for _, name := range ckpts {
		full, err := s.readmitCheckpoint(name)
		if err != nil {
			s.quarantine(name, err)
			continue
		}
		if full {
			return nil // no room this start; the rest stays on disk
		}
	}
	for _, name := range specs {
		path := filepath.Join(s.opt.SpoolDir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("server: reading spooled spec %s: %w", name, err)
		}
		var spec JobSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			s.quarantine(name, fmt.Errorf("parsing spec: %w", err))
			continue
		}
		full, err := s.readmit(spec, nil)
		if err != nil {
			s.quarantine(name, err)
			continue
		}
		if full {
			return nil
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("server: removing spooled spec %s: %w", name, err)
		}
	}
	return nil
}

// readmitCheckpoint loads, validates and re-admits one checkpoint file.
// Returns full=true when the queue had no room (the file stays for the
// next start); any error means the file is corrupt or no longer
// admissible and should be quarantined.
func (s *Server) readmitCheckpoint(name string) (full bool, err error) {
	data, readErr := os.ReadFile(filepath.Join(s.opt.SpoolDir, name))
	if readErr != nil {
		return false, fmt.Errorf("reading checkpoint: %w", readErr)
	}
	var cf CheckpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return false, fmt.Errorf("parsing checkpoint: %w", err)
	}
	norm, err := cf.Spec.Normalize()
	if err != nil {
		return false, fmt.Errorf("validating checkpointed spec: %w", err)
	}
	if norm.ID == "" {
		return false, fmt.Errorf("checkpointed spec has no job ID")
	}
	cells, _, err := norm.compile()
	if err != nil {
		return false, fmt.Errorf("compiling checkpointed grid: %w", err)
	}
	completed, err := ValidateCells(cf.Cells, cells)
	if err != nil {
		return false, err
	}
	return s.readmit(cf.Spec, completed)
}

// ValidateCells checks checkpointed cells against the grid they claim
// to come from: every index in range and unique, every name and seed
// the grid's own. It returns the completed-cell map a resumed job
// starts from.
func ValidateCells(ckpt []CheckpointCell, cells []experiments.GridCell) (map[int]CheckpointCell, error) {
	completed := make(map[int]CheckpointCell, len(ckpt))
	for _, cc := range ckpt {
		if cc.Index < 0 || cc.Index >= len(cells) {
			return nil, fmt.Errorf("cell index %d outside grid of %d cells", cc.Index, len(cells))
		}
		if _, dup := completed[cc.Index]; dup {
			return nil, fmt.Errorf("duplicate cell index %d", cc.Index)
		}
		want := cells[cc.Index]
		if cc.Name != want.Name() || cc.Seed != want.Seed {
			return nil, fmt.Errorf("cell %d is %q seed %d, grid says %q seed %d",
				cc.Index, cc.Name, cc.Seed, want.Name(), want.Seed)
		}
		completed[cc.Index] = cc
	}
	return completed, nil
}

// readmit normalizes and admits one persisted spec, seeding the job with
// any checkpointed cells. full=true means the queue rejected it with
// backpressure (leave the file; stop re-admitting); an error means the
// spec itself is unusable (quarantine it).
func (s *Server) readmit(spec JobSpec, completed map[int]CheckpointCell) (full bool, err error) {
	norm, err := spec.Normalize()
	if err != nil {
		return false, fmt.Errorf("validating spec: %w", err)
	}
	// A spool carrying the same job ID twice (a checkpoint plus a stale
	// spec, or an operator-copied file) must not double-queue the job:
	// the second file is a bad config, quarantined like any other
	// invalid spec, and the first admission stands.
	if norm.ID != "" {
		s.mu.Lock()
		_, dup := s.jobs[norm.ID]
		s.mu.Unlock()
		if dup {
			return false, fmt.Errorf("%w: duplicate job ID %q in spool (already re-admitted this start)", errs.ErrBadConfig, norm.ID)
		}
	}
	cost := norm.Cost()
	if cost > s.opt.MaxJobCost {
		return false, fmt.Errorf("cost %d exceeds per-job budget %d", cost, s.opt.MaxJobCost)
	}
	if _, err := s.admit(norm, cost, completed); err != nil {
		if errors.Is(err, errs.ErrOverloaded) {
			return true, nil
		}
		return false, fmt.Errorf("re-admitting: %w", err)
	}
	s.mJobsReadmitted.Inc()
	return false, nil
}

// quarantine renames a bad spool/checkpoint file aside and records the
// structured warning. The daemon keeps starting: a corrupt file costs
// one job, not the whole service.
func (s *Server) quarantine(name string, cause error) {
	werr := fmt.Errorf("server: %w", Quarantine(filepath.Join(s.opt.SpoolDir, name), cause))
	s.mSpoolQuarantined.Inc()
	s.mu.Lock()
	s.spoolWarnings = append(s.spoolWarnings, werr)
	s.mu.Unlock()
}

// Quarantine renames a corrupt spool or checkpoint file aside (path +
// QuarantineSuffix) and returns the errs.ErrSpoolCorrupt warning that
// records it, naming the file and the cause.
func Quarantine(path string, cause error) error {
	werr := fmt.Errorf("%w: %s: %v", errs.ErrSpoolCorrupt, filepath.Base(path), cause)
	if err := os.Rename(path, path+QuarantineSuffix); err != nil {
		werr = fmt.Errorf("%w (quarantine rename failed: %v)", werr, err)
	}
	return werr
}

// SpoolWarnings returns the structured warnings Start accumulated while
// re-admitting persisted work: one errs.ErrSpoolCorrupt-wrapping error
// per quarantined file plus any checkpoint-write failures, in
// occurrence order. Empty on a clean start.
func (s *Server) SpoolWarnings() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.spoolWarnings...)
}

// SortedCells lists completed cells in grid-index order, the order a
// CheckpointFile records them in.
func SortedCells(completed map[int]CheckpointCell) []CheckpointCell {
	cells := make([]CheckpointCell, 0, len(completed))
	for _, cc := range completed {
		cells = append(cells, cc)
	}
	sort.Slice(cells, func(i, k int) bool { return cells[i].Index < cells[k].Index })
	return cells
}

// WriteCheckpoint atomically persists cf at path (write to a temp name,
// rename into place), creating the directory if needed, so a crash
// mid-write never leaves a truncated checkpoint where a valid one
// stood.
func WriteCheckpoint(path string, cf CheckpointFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return fmt.Errorf("creating spool dir: %w", err)
	}
	data, err := json.MarshalIndent(cf, "", "  ")
	if err != nil {
		return fmt.Errorf("marshaling: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o666); err != nil {
		return fmt.Errorf("writing: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("installing: %w", err)
	}
	return nil
}

// writeCheckpoint persists a job's checkpoint file. Failures are
// recorded as warnings, not job failures: losing a checkpoint costs
// resumability, not correctness.
func (s *Server) writeCheckpoint(spec JobSpec, cells []CheckpointCell) {
	path := filepath.Join(s.opt.SpoolDir, spec.ID+checkpointSuffix)
	if err := WriteCheckpoint(path, CheckpointFile{Spec: spec, Cells: cells}); err != nil {
		s.mu.Lock()
		s.spoolWarnings = append(s.spoolWarnings, fmt.Errorf("server: checkpoint %q: %w", spec.ID, err))
		s.mu.Unlock()
		return
	}
	s.mCheckpoints.Inc()
}

// removeCheckpoint deletes a settled job's checkpoint file, if any.
func (s *Server) removeCheckpoint(id string) {
	err := os.Remove(filepath.Join(s.opt.SpoolDir, id+checkpointSuffix))
	if err != nil && !os.IsNotExist(err) {
		s.mu.Lock()
		s.spoolWarnings = append(s.spoolWarnings, fmt.Errorf("server: removing checkpoint %q: %w", id, err))
		s.mu.Unlock()
	}
}
