package dram

import (
	"hams/internal/mem"
	"hams/internal/sim"
)

// NVDIMM is a JEDEC NVDIMM-N: DRAM devices plus a supercapacitor and a
// same-capacity private flash chip. Under normal operation it is a
// plain RDIMM; on power failure the on-board controller isolates the
// DRAM from the bus (multiplexers) and streams the full DRAM image to
// its private flash powered by the supercap. On the next boot it
// restores the image. The backup/restore path is invisible to the host
// and takes tens of seconds (§II-A).
type NVDIMM struct {
	*DDR4

	backupGBs float64 // private flash backup stream bandwidth
	// image is the private flash's copy of the DRAM, nil until the
	// first backup (and after DropImage). It lives across power
	// cycles: each backup and restore copies frame by frame into the
	// frames the destination already holds.
	image      *mem.SparseStore
	backups    int
	restores   int
	backupTime sim.Time
}

// NVDIMMConfig describes the module.
type NVDIMMConfig struct {
	DRAM      Config
	BackupGBs float64 // DRAM->private-flash stream rate; default 0.8 GB/s
}

// NewNVDIMM builds the module. The DRAM channel is forced functional so
// that backup/restore can carry real bytes.
func NewNVDIMM(cfg NVDIMMConfig) *NVDIMM {
	cfg.DRAM.Functional = true
	if cfg.BackupGBs == 0 {
		cfg.BackupGBs = 0.8
	}
	return &NVDIMM{DDR4: New(cfg.DRAM), backupGBs: cfg.BackupGBs}
}

// PowerFail captures the DRAM image into the private flash (supercap
// powered) and reports how long the backup stream takes. The host is
// already down, so the duration does not extend application time; it
// matters for the recovery-procedure experiments.
func (n *NVDIMM) PowerFail() sim.Time {
	if n.image == nil {
		n.image = mem.NewSparseStore()
	}
	n.image.CopyFrom(n.Store())
	n.backups++
	d := sim.Bandwidth(int64(n.Capacity()), n.backupGBs)
	n.backupTime += d
	return d
}

// Restore loads the private-flash image back into DRAM on boot,
// returning the restore duration. Restoring without a prior backup is
// a no-op that returns zero (cold boot).
func (n *NVDIMM) Restore() sim.Time {
	if n.image == nil {
		return 0
	}
	n.Store().CopyFrom(n.image)
	n.restores++
	return sim.Bandwidth(int64(n.Capacity()), n.backupGBs)
}

// DropImage simulates losing the backup (e.g. supercap failure) so
// tests can exercise the cold-boot path.
func (n *NVDIMM) DropImage() { n.image = nil }

// Backups and Restores report lifecycle counts.
func (n *NVDIMM) Backups() int  { return n.backups }
func (n *NVDIMM) Restores() int { return n.restores }
