// Golden case for the errsink analyzer: errors from durability-path
// calls (fsync, close, journal append, checksum decode) must not be
// discarded structurally; `_ =` is the sanctioned deliberate discard.
package errsink

import (
	"os"

	"ftdag/internal/journal"
)

func carelessClose(f *os.File) {
	f.Close() // want:errsink: error from (*os.File).Close is discarded
}

func deferredSync(f *os.File) error {
	defer f.Sync() // want:errsink: defer discards the error from (*os.File).Sync
	_, err := f.WriteString("x")
	return err
}

func lostAppend(j *journal.Journal, rec journal.Record) {
	j.Append(rec) // want:errsink: error from (*journal.Journal).Append is discarded
}

func lostClose(j *journal.Journal) {
	defer j.Close() // want:errsink: defer discards the error from (*journal.Journal).Close
}

func unverified(payload []byte) {
	journal.DecodeRecord(payload) // want:errsink: error from journal.DecodeRecord is discarded
}

func lostWrite(j *journal.Journal, rec journal.Record) {
	j.Write(rec) // want:errsink: error from (*journal.Journal).Write is discarded
}

func lostSync(j *journal.Journal, t journal.Ticket) {
	j.Sync(t) // want:errsink: error from (*journal.Journal).Sync is discarded
}

func deferredJournalSync(j *journal.Journal, rec journal.Record) error {
	t, err := j.Write(rec)
	defer j.Sync(t) // want:errsink: defer discards the error from (*journal.Journal).Sync
	return err
}

func unverifiedScan(b []byte) {
	journal.ScanSegment(b, 0) // want:errsink: error from journal.ScanSegment is discarded
}

func deferredScan(b []byte) {
	defer journal.ScanSegment(b, 0) // want:errsink: defer discards the error from journal.ScanSegment
}

func lostFileSync(f journal.File) {
	f.Sync() // want:errsink: error from (journal.File).Sync is discarded
}

func deferredFileClose(f journal.File) {
	defer f.Close() // want:errsink: defer discards the error from (journal.File).Close
}

func deliberate(f *os.File) {
	_ = f.Close() // explicit discard: allowed
}

func checked(f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}
