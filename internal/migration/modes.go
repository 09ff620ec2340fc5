package migration

import "fmt"

// Mode selects the migration engine. The engines are compositions of the
// stages in stages.go: the pre-copy orchestrator (ModeVanilla,
// ModeAppAssisted), the lazy post-switchover engine (ModePostCopy), and the
// hybrid of the two (ModeHybrid).
type Mode int

const (
	// ModeVanilla is unmodified Xen pre-copy: application-agnostic.
	ModeVanilla Mode = iota
	// ModeAppAssisted consults the LKM's transfer bitmap and runs the
	// collaborative workflow of paper §3.3.5.
	ModeAppAssisted
	// ModePostCopy is the related-work baseline of paper §2 (Hines &
	// Gopalan): no pre-copy at all — the VM moves immediately and its
	// memory follows via demand faults and background pre-paging.
	ModePostCopy
	// ModeHybrid composes the two engines: a short pre-copy warm phase
	// pushes a first pass of memory, then the VM switches over post-copy
	// style and only the pages dirtied since their last send (plus the
	// never-sent remainder) are demand-fetched or pre-paged.
	ModeHybrid
)

// String names the mode as in the paper's evaluation.
func (m Mode) String() string {
	switch m {
	case ModeVanilla:
		return "xen"
	case ModeAppAssisted:
		return "javmm"
	case ModePostCopy:
		return "post-copy"
	case ModeHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode is the inverse of Mode.String: it resolves the mode names the
// CLIs and experiment configs use ("xen", "javmm", "post-copy", "hybrid").
func ParseMode(s string) (Mode, error) {
	switch s {
	case "xen":
		return ModeVanilla, nil
	case "javmm":
		return ModeAppAssisted, nil
	case "post-copy":
		return ModePostCopy, nil
	case "hybrid":
		return ModeHybrid, nil
	default:
		return 0, fmt.Errorf("migration: unknown mode %q (want xen, javmm, post-copy or hybrid)", s)
	}
}
