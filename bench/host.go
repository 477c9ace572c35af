package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// hostInfo records where a ledger row was measured: wall-time numbers from
// different hosts are not comparable.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// TmpFS is the filesystem type under -tmpdir, where graph directories
	// are committed and fsynced.
	TmpFS string `json:"tmpdir_fs"`
}

// fsNames maps statfs magic numbers to names for the common cases.
var fsNames = map[uint64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

func probeHost(tmpdir string) hostInfo {
	h := hostInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: benchProcs(),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		TmpFS:      "unknown",
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(tmpdir, &st); err == nil {
		magic := uint64(st.Type) & 0xffffffff
		if name, ok := fsNames[magic]; ok {
			h.TmpFS = name
		} else {
			h.TmpFS = fmt.Sprintf("0x%x", magic)
		}
	}
	return h
}
