//go:build linux && (amd64 || arm64)

package mmapdev

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
	"unsafe"

	"github.com/mod-ds/mod/internal/pmem"
)

// mapFile opens (creating and sizing when create is true) and maps the
// file shared read-write. With create false the existing file's size is
// used; size is ignored.
func mapFile(path string, size int64, create bool) ([]byte, error) {
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if create {
		if err := f.Truncate(size); err != nil {
			return nil, fmt.Errorf("mmapdev: sizing %s to %d bytes: %w", path, size, err)
		}
	} else {
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		size = st.Size()
		if size == 0 {
			return nil, fmt.Errorf("mmapdev: %s is empty", path)
		}
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmapdev: mmap %s: %w", path, err)
	}
	return data, nil
}

// unmapFile fully syncs and unmaps the mapping (clean shutdown: every
// write persists, noted or not).
func unmapFile(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if err := msync(data, 0, uintptr(len(data))); err != nil {
		syscall.Munmap(data)
		return err
	}
	return syscall.Munmap(data)
}

// syncRange msyncs the page-aligned byte range covering lines
// [startLn, endLn) and returns the bytes it covered.
func syncRange(data []byte, startLn, endLn uint64) (uint64, error) {
	ps := uint64(syscall.Getpagesize())
	lo := (startLn << pmem.LineShift) &^ (ps - 1)
	hi := ((endLn << pmem.LineShift) + ps - 1) &^ (ps - 1)
	if hi > uint64(len(data)) {
		hi = uint64(len(data))
	}
	if lo >= hi {
		return 0, nil
	}
	return hi - lo, msync(data, uintptr(lo), uintptr(hi-lo))
}

func msync(data []byte, off, n uintptr) error {
	addr := uintptr(unsafe.Pointer(&data[0])) + off
	if _, _, errno := syscall.Syscall(syscall.SYS_MSYNC, addr, n, uintptr(syscall.MS_SYNC)); errno != 0 {
		return fmt.Errorf("mmapdev: msync: %w", errno)
	}
	return nil
}

// Aligned multi-byte cells are accessed with real atomics directly on
// the mapping; the builds this file covers are little-endian, so the
// native word layout matches the arena's little-endian format.

func loadU64(data []byte, addr pmem.Addr) uint64 {
	if addr&7 == 0 {
		return atomic.LoadUint64((*uint64)(unsafe.Pointer(&data[addr])))
	}
	return binary.LittleEndian.Uint64(data[addr:])
}

func storeU64(data []byte, addr pmem.Addr, v uint64) {
	if addr&7 == 0 {
		atomic.StoreUint64((*uint64)(unsafe.Pointer(&data[addr])), v)
		return
	}
	binary.LittleEndian.PutUint64(data[addr:], v)
}

func casU64(data []byte, addr pmem.Addr, old, v uint64) bool {
	return atomic.CompareAndSwapUint64((*uint64)(unsafe.Pointer(&data[addr])), old, v)
}

func loadU32(data []byte, addr pmem.Addr) uint32 {
	if addr&3 == 0 {
		return atomic.LoadUint32((*uint32)(unsafe.Pointer(&data[addr])))
	}
	return binary.LittleEndian.Uint32(data[addr:])
}

func storeU32(data []byte, addr pmem.Addr, v uint32) {
	if addr&3 == 0 {
		atomic.StoreUint32((*uint32)(unsafe.Pointer(&data[addr])), v)
		return
	}
	binary.LittleEndian.PutUint32(data[addr:], v)
}
