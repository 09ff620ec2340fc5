// Package replication implements Remus-style continuous VM checkpointing
// with RemusDB's "memory deprotection" (paper §2): the closest published
// relative of application-assisted migration. A protected VM is paused
// briefly at every epoch; the pages dirtied since the previous epoch are
// shipped to a backup host, which can resume the VM if the primary fails.
//
// Deprotection reuses the migration framework verbatim: applications declare
// skip-over areas through the same LKM and transfer bitmap, and the
// checkpoint stream simply never carries those pages. For a Java VM this
// means young-generation garbage is not replicated — the experiment the
// RemusDB authors speculated about ("data structures to be suitably omitted
// by this technique are yet to be identified") with JAVMM's answer.
//
// Failover semantics under deprotection: the backup resumes from the last
// epoch with skip-over areas unreplicated, so the application-level contract
// is the same as for migration — those areas must be recoverable or
// unneeded. For JAVMM this is safe only at collection boundaries; the
// replicator therefore reports how much of each epoch's dirty set it
// deprotected so policies can bound the exposure.
package replication

import (
	"errors"
	"time"

	"javmm/internal/guestos"
	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/migration"
	"javmm/internal/netsim"
	"javmm/internal/simclock"
)

// Config tunes the replicator.
type Config struct {
	// Deprotect consults the LKM's transfer bitmap, omitting skip-over
	// pages from checkpoints (RemusDB memory deprotection).
	Deprotect bool
}

// The checkpoint model.
const (
	// epoch is the checkpoint interval (Remus commonly runs 25-100 ms).
	epoch = 100 * time.Millisecond
	// checkpointPauseBase models the stop-and-copy-into-buffer pause at
	// each epoch boundary (the output commit happens asynchronously).
	checkpointPauseBase = 500 * time.Microsecond
	// pausePerPage is the additional pause per dirty page captured.
	pausePerPage = 100 * time.Nanosecond
)

// EpochStats describes one checkpoint.
type EpochStats struct {
	Index       int
	At          time.Duration
	DirtyPages  uint64
	SentPages   uint64
	Deprotected uint64 // dirty pages omitted via the transfer bitmap
	Pause       time.Duration
	CommitTime  time.Duration // network time to push the epoch
}

// Report summarizes a protection run.
type Report struct {
	Epochs      []EpochStats
	TotalBytes  uint64
	TotalPages  uint64
	Deprotected uint64
	TotalPause  time.Duration
	Duration    time.Duration
}

// AvgPause returns the mean per-epoch pause.
func (r *Report) AvgPause() time.Duration {
	if len(r.Epochs) == 0 {
		return 0
	}
	return r.TotalPause / time.Duration(len(r.Epochs))
}

// Replicator continuously checkpoints a domain to a backup store.
type Replicator struct {
	Dom    *hypervisor.Domain
	LKM    *guestos.LKM // required when Config.Deprotect is set
	Link   *netsim.Link
	Clock  *simclock.Clock
	Exec   migration.GuestExecutor // may be nil for an idle guest
	Backup *migration.Destination
	Cfg    Config
}

// Errors returned by Protect.
var (
	ErrNoBackup      = errors.New("replication: backup destination required")
	ErrNoLKM         = errors.New("replication: deprotection requires an LKM")
	ErrAlreadyDirty  = errors.New("replication: domain already in log-dirty mode")
	errNotProtecting = errors.New("replication: protection window must be positive")
)

// Protect runs continuous checkpointing for the given virtual duration and
// returns the report. The first checkpoint ships the full memory image (the
// initial synchronization); subsequent epochs ship dirty deltas.
//
// Under deprotection the engine queries the LKM exactly like migration does:
// EvMigrationBegin at start (apps report skip-over areas) and EvVMResumed at
// the end (protection ends; the LKM resets). Shrink notifications are
// honoured throughout, so a shrinking young generation re-protects its
// departed pages immediately.
func (r *Replicator) Protect(window time.Duration) (*Report, error) {
	switch {
	case r.Dom == nil, r.Clock == nil, r.Link == nil:
		return nil, errors.New("replication: Dom, Clock and Link are required")
	case r.Backup == nil:
		return nil, ErrNoBackup
	case r.Cfg.Deprotect && r.LKM == nil:
		return nil, ErrNoLKM
	case window <= 0:
		return nil, errNotProtecting
	}
	if r.Dom.LogDirtyEnabled() {
		return nil, ErrAlreadyDirty
	}
	if err := r.Dom.EnableLogDirty(); err != nil {
		return nil, err
	}
	defer r.Dom.DisableLogDirty()

	var transfer *mem.Bitmap
	if r.Cfg.Deprotect {
		ep := r.LKM.DaemonEndpoint()
		ep.Bind(func(any) {}) // suspension events are not used by Remus
		ep.Notify(guestos.EvMigrationBegin{})
		transfer = r.LKM.TransferBitmap()
		defer func() {
			// End of protection: reset the LKM via the abort path (no
			// suspension happened).
			ep.Notify(guestos.EvMigrationAborted{})
		}()
	}

	rep := &Report{}
	n := r.Dom.NumPages()
	dirty := mem.NewBitmap(n)
	wire := r.Dom.Store().WireSize()

	// Initial full synchronization; the protection window is measured in
	// steady state, after the backup holds a complete image.
	r.checkpoint(rep, 0, fullBitmap(n), transfer, wire)
	start := r.Clock.Now()

	index := 1
	for r.Clock.Now()-start < window {
		slice := epoch
		if rem := window - (r.Clock.Now() - start); rem < slice {
			slice = rem
		}
		r.advance(slice)
		r.Dom.PeekAndClear(dirty)
		r.checkpoint(rep, index, dirty, transfer, wire)
		index++
	}
	rep.Duration = r.Clock.Now() - start
	return rep, nil
}

func fullBitmap(n uint64) *mem.Bitmap {
	b := mem.NewBitmap(n)
	b.SetAll()
	return b
}

// checkpoint captures and ships one epoch.
func (r *Replicator) checkpoint(rep *Report, index int, dirty, transfer *mem.Bitmap, wire uint64) {
	st := EpochStats{Index: index, At: r.Clock.Now(), DirtyPages: dirty.Count()}

	// Select what this epoch replicates: dirty pages minus deprotected
	// skip-over pages (the latter are never even copied into the commit
	// buffer — the saving RemusDB's deprotection is after).
	var toShip []mem.PFN
	dirty.Range(func(p mem.PFN) bool {
		if transfer != nil && !transfer.Test(p) {
			st.Deprotected++
			return true
		}
		toShip = append(toShip, p)
		return true
	})
	st.SentPages = uint64(len(toShip))

	// Capture: the VM pauses while the selected pages are copied into the
	// commit buffer, then resumes; the network push overlaps the next
	// epoch (Remus's asynchronous output commit).
	st.Pause = checkpointPauseBase + time.Duration(st.SentPages)*pausePerPage
	r.Dom.Pause()
	store := r.Dom.Store()
	var buf []byte
	for _, p := range toShip {
		// The checkpoint stream has no fault story (yet): receive errors
		// cannot occur on an injector-free destination.
		buf = store.AppendExport(buf[:0], p)
		_ = r.Backup.ReceiveCheckpointPage(p, buf)
	}
	r.Clock.Advance(st.Pause)
	r.Dom.Unpause()

	st.CommitTime = r.Link.Send(st.SentPages * wire)
	// The commit is asynchronous: guest time advances with it.
	r.advance(st.CommitTime)

	rep.Epochs = append(rep.Epochs, st)
	rep.TotalPages += st.SentPages
	rep.TotalBytes += st.SentPages * wire
	rep.Deprotected += st.Deprotected
	rep.TotalPause += st.Pause
}

func (r *Replicator) advance(d time.Duration) {
	if d <= 0 {
		return
	}
	if r.Exec != nil && !r.Dom.Paused() {
		r.Exec.Run(d)
		return
	}
	r.Clock.Advance(d)
}
