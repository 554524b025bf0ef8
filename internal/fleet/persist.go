package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
	"threadcluster/internal/server"
)

// Fleet checkpoint format: one server.CheckpointFile per in-flight fleet
// job, "<job id>.fleetckpt" in Options.SpoolDir. It records the
// normalized spec plus every cell whose shard has completed, exactly
// like tcsimd's per-job checkpoints and through the same codec — cells
// are independent machines with spec-derived seeds, so a restarted
// coordinator restores the recorded cells, re-partitions the identical
// ring, and re-runs only shards with missing cells, converging on the
// byte-identical payload an uninterrupted run produces. The file is
// flushed after every shard completion and deleted when the job
// settles. Files that fail to parse, belong to a different spec or
// disagree with the spec's grid are quarantined (server.Quarantine) and
// the job starts from scratch; a corrupt checkpoint costs
// resumability, never correctness.

const fleetCheckpointSuffix = ".fleetckpt"

// checkpointPath names the job's checkpoint file; "" when spooling is
// disabled.
func (c *Coordinator) checkpointPath(id string) string {
	if c.opt.SpoolDir == "" {
		return ""
	}
	return filepath.Join(c.opt.SpoolDir, id+fleetCheckpointSuffix)
}

// loadCheckpoint restores a prior run's completed cells, keyed by
// full-grid index. Missing file means a fresh start. A file that
// parses but belongs to a different spec (same ID reused) or whose
// cells contradict the grid is quarantined — resuming from it would
// poison the digest.
func (c *Coordinator) loadCheckpoint(norm server.JobSpec, cells []experiments.GridCell) map[int]server.CheckpointCell {
	path := c.checkpointPath(norm.ID)
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		c.warn(fmt.Errorf("fleet: %w: reading checkpoint %s: %v", errs.ErrSpoolCorrupt, path, err))
		return nil
	}
	completed, err := parseCheckpoint(data, norm, cells)
	if err != nil {
		c.warn(fmt.Errorf("fleet: %w", server.Quarantine(path, err)))
		return nil
	}
	return completed
}

// parseCheckpoint validates checkpoint bytes against the normalized
// spec and its grid.
func parseCheckpoint(data []byte, norm server.JobSpec, cells []experiments.GridCell) (map[int]server.CheckpointCell, error) {
	var cf server.CheckpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, fmt.Errorf("parsing checkpoint: %w", err)
	}
	ckptNorm, err := cf.Spec.Normalize()
	if err != nil {
		return nil, fmt.Errorf("validating checkpointed spec: %w", err)
	}
	want, err := json.Marshal(norm)
	if err != nil {
		return nil, fmt.Errorf("encoding spec: %w", err)
	}
	got, err := json.Marshal(ckptNorm)
	if err != nil {
		return nil, fmt.Errorf("encoding checkpointed spec: %w", err)
	}
	if !bytes.Equal(want, got) {
		return nil, fmt.Errorf("checkpoint spec differs from submitted spec (job ID %q reused?)", norm.ID)
	}
	return server.ValidateCells(cf.Cells, cells)
}

// writeCheckpoint persists the completed-cell set. Failures are
// warnings, not job failures.
func (c *Coordinator) writeCheckpoint(norm server.JobSpec, completed map[int]server.CheckpointCell) {
	path := c.checkpointPath(norm.ID)
	if path == "" {
		return
	}
	cf := server.CheckpointFile{Spec: norm, Cells: server.SortedCells(completed)}
	if err := server.WriteCheckpoint(path, cf); err != nil {
		c.warn(fmt.Errorf("fleet: checkpoint %q: %w", norm.ID, err))
	}
}

// removeCheckpoint deletes a settled job's checkpoint, if any.
func (c *Coordinator) removeCheckpoint(id string) {
	path := c.checkpointPath(id)
	if path == "" {
		return
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		c.warn(fmt.Errorf("fleet: removing checkpoint %q: %w", id, err))
	}
}
