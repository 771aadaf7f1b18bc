package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"strings"

	"pjs/internal/sched"
)

// Failure modes of Open/Load, distinguishable with errors.Is so the
// CLIs can tell an operator *why* a file was rejected. Corruption and
// version skew are never silently ignored by the checkpoint layer
// itself; only the experiment memo cache (which can always regenerate
// its entries) treats ErrCorrupt as a cache miss.
var (
	// ErrCorrupt: the file is truncated, fails its checksum, or is not
	// in the container format at all.
	ErrCorrupt = errors.New("ckpt: corrupt or truncated file")
	// ErrVersion: the container is well-formed but written by an
	// incompatible format version.
	ErrVersion = errors.New("ckpt: unsupported format version")
)

// The container frames a payload as
//
//	<kind> v<version>\n
//	<payload>
//	\ncrc32 <8 hex digits>\n
//
// with the CRC-32 (IEEE) covering the header line and the payload.
// The header is first so `head -1` identifies a file; the checksum is
// last so it can be computed in one streaming pass.
const crcTrailerLen = len("\ncrc32 00000000\n")

// Seal frames payload in the checksummed container format.
func Seal(kind string, version int, payload []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s v%d\n", kind, version)
	b.Write(payload)
	fmt.Fprintf(&b, "\ncrc32 %08x\n", crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

// Open verifies the container framing, checksum, kind and version of
// data and returns the payload. The error wraps ErrCorrupt or
// ErrVersion accordingly.
func Open(kind string, version int, data []byte) ([]byte, error) {
	if len(data) < crcTrailerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the checksum trailer", ErrCorrupt, len(data))
	}
	body := data[:len(data)-crcTrailerLen]
	trailer := string(data[len(data)-crcTrailerLen:])
	hexSum, ok := strings.CutPrefix(trailer, "\ncrc32 ")
	if !ok || !strings.HasSuffix(hexSum, "\n") {
		return nil, fmt.Errorf("%w: malformed checksum trailer %q", ErrCorrupt, trailer)
	}
	sum, err := strconv.ParseUint(strings.TrimSuffix(hexSum, "\n"), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("%w: malformed checksum trailer %q", ErrCorrupt, trailer)
	}
	if got := crc32.ChecksumIEEE(body); got != uint32(sum) {
		return nil, fmt.Errorf("%w: checksum mismatch (trailer says %08x, content hashes to %08x)",
			ErrCorrupt, uint32(sum), got)
	}
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: missing header line", ErrCorrupt)
	}
	header := string(body[:nl])
	rest, ok := strings.CutPrefix(header, kind+" v")
	if !ok {
		return nil, fmt.Errorf("%w: header %q, want a %q file", ErrCorrupt, header, kind)
	}
	v, err := strconv.Atoi(rest)
	if err != nil {
		return nil, fmt.Errorf("%w: malformed version in header %q", ErrCorrupt, header)
	}
	if v != version {
		return nil, fmt.Errorf("%w: file is %s v%d, this build reads v%d", ErrVersion, kind, v, version)
	}
	return body[nl+1:], nil
}

// Checkpoint format identity. Bump checkpointVersion on any change to
// the Checkpoint JSON schema, the audit-prefix hash function, or the
// engine event ordering — an old checkpoint must be rejected rather
// than silently resumed into a divergent run.
const (
	checkpointKind    = "pjsckpt"
	checkpointVersion = 1
)

// Checkpoint is a complete resumable description of one simulation
// run: its inputs (workload provenance, scheduler spec, options) and the
// watermark of deterministic progress the run saved (sched.Snapshot,
// whose fields encode inline after the inputs). The watermark is what
// the resumed run takes as sched.Options.Resume.
type Checkpoint struct {
	Workload WorkloadSpec `json:"workload"`
	Sched    string       `json:"sched"`
	Opt      OptSpec      `json:"opt"`
	sched.Snapshot
}

// Encode renders the checkpoint in the sealed container format.
func (c *Checkpoint) Encode() ([]byte, error) {
	payload, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("ckpt: encode: %w", err)
	}
	return Seal(checkpointKind, checkpointVersion, payload), nil
}

// Decode parses and verifies a sealed checkpoint.
func Decode(data []byte) (*Checkpoint, error) {
	payload, err := Open(checkpointKind, checkpointVersion, data)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{}
	if err := json.Unmarshal(payload, c); err != nil {
		return nil, fmt.Errorf("%w: bad checkpoint payload: %v", ErrCorrupt, err)
	}
	if c.Events < 0 || c.AuditEntries < 0 {
		return nil, fmt.Errorf("%w: negative watermark (events=%d entries=%d)",
			ErrCorrupt, c.Events, c.AuditEntries)
	}
	return c, nil
}

// Save atomically writes the checkpoint to path: the file on disk is
// always either the previous checkpoint or this one, never a mix.
func (c *Checkpoint) Save(path string) error {
	data, err := c.Encode()
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
}

// Load reads and verifies a checkpoint file.
func Load(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
