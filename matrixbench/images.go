package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// imageCounts is what a pass left in its image root: complete-looking
// image sets (directories holding a meta file), rank image files, and
// the bytes of every file under the root.
type imageCounts struct {
	Sets       int   `json:"sets"`
	RankImages int   `json:"rank_images"`
	Bytes      int64 `json:"bytes"`
}

func (c imageCounts) plus(d imageCounts) imageCounts {
	return imageCounts{Sets: c.Sets + d.Sets, RankImages: c.RankImages + d.RankImages, Bytes: c.Bytes + d.Bytes}
}

// countImages walks an image root. A missing root counts as empty: a
// workload that writes no image never creates one.
func countImages(root string) (imageCounts, error) {
	var c imageCounts
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if path == root && os.IsNotExist(err) {
				return filepath.SkipDir
			}
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		c.Bytes += info.Size()
		switch name := d.Name(); {
		case name == "meta.gob":
			c.Sets++
		case strings.HasPrefix(name, "rank_") && strings.HasSuffix(name, ".img"):
			c.RankImages++
		}
		return nil
	})
	if err != nil {
		return c, fmt.Errorf("counting images under %s: %w", root, err)
	}
	return c, nil
}

// fsNames maps statfs magic numbers to filesystem names.
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("fs-0x%x", st.Type)
}
