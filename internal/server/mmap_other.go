//go:build !unix

package server

import "errors"

var errMmapUnsupported = errors.New("mmap unsupported")

// mmapFile reports mmap as unavailable on this platform; LoadIndexOpts
// falls back to reading the file through core.Load.
func mmapFile(string) ([]byte, func() error, error) {
	return nil, nil, errMmapUnsupported
}
