//go:build !(linux && (amd64 || arm64))

package mmapdev

import (
	"encoding/binary"

	"github.com/mod-ds/mod/internal/pmem"
)

func mapFile(path string, size int64, create bool) ([]byte, error) {
	return nil, ErrUnsupported
}

func unmapFile(data []byte) error { return nil }

func syncRange(data []byte, startLn, endLn uint64) (uint64, error) { return 0, nil }

// Plain little-endian word ops keep the stub compiling; no device is
// ever constructed on these platforms.

func loadU64(data []byte, addr pmem.Addr) uint64 { return binary.LittleEndian.Uint64(data[addr:]) }

func storeU64(data []byte, addr pmem.Addr, v uint64) { binary.LittleEndian.PutUint64(data[addr:], v) }

func casU64(data []byte, addr pmem.Addr, old, v uint64) bool {
	if binary.LittleEndian.Uint64(data[addr:]) != old {
		return false
	}
	binary.LittleEndian.PutUint64(data[addr:], v)
	return true
}

func loadU32(data []byte, addr pmem.Addr) uint32 { return binary.LittleEndian.Uint32(data[addr:]) }

func storeU32(data []byte, addr pmem.Addr, v uint32) { binary.LittleEndian.PutUint32(data[addr:], v) }
