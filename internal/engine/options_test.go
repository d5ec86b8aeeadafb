package engine

import (
	"strings"
	"testing"
	"time"
)

// nullStore is the minimal SegmentStore for validation tests: every
// method is a successful no-op over empty state.
type nullStore struct{}

func (nullStore) AppendWAL([]byte) error          { return nil }
func (nullStore) SyncWAL() error                  { return nil }
func (nullStore) WAL() ([]byte, error)            { return nil, nil }
func (nullStore) ResetWAL() error                 { return nil }
func (nullStore) PutSegment(uint64, []byte) error { return nil }
func (nullStore) Segment(uint64) ([]byte, error)  { return nil, nil }
func (nullStore) DropSegmentsBelow(uint64) error  { return nil }
func (nullStore) PutCheckpoint([]byte) error      { return nil }
func (nullStore) Checkpoint() ([]byte, error)     { return nil, nil }
func (nullStore) Close() error                    { return nil }

func TestOptionsValidate(t *testing.T) {
	durable := func(mut func(*Options)) Options {
		o := DefaultOptions()
		o.Durability.Store = nullStore{}
		if mut != nil {
			mut(&o)
		}
		return o
	}
	cases := []struct {
		name string
		opts Options
		want string // substring of the error, "" for valid
	}{
		{"defaults", DefaultOptions(), ""},
		{"zero value", Options{}, ""},
		{"negative segment size", Options{SegmentSize: -1}, "SegmentSize"},
		{"negative max sessions", Options{MaxSessions: -3}, "MaxSessions"},
		{"negative rule executions", Options{MaxRuleExecutions: -7}, "MaxRuleExecutions"},
		{"durable defaults", durable(nil), ""},
		{"durable zero value", Options{Durability: DurabilityOptions{Store: nullStore{}}}, ""},
		{"durable multi-session", durable(func(o *Options) {
			o.MaxSessions = 4
		}), ""},
		{"durable multi-session auto-checkpoints", durable(func(o *Options) {
			o.MaxSessions = 4
			o.Durability.CheckpointEvery = 8
		}), ""},
		{"durable negative sync interval", durable(func(o *Options) {
			o.Durability.SyncInterval = -time.Millisecond
		}), "SyncInterval"},
		{"durable negative checkpoint cadence", durable(func(o *Options) {
			o.Durability.CheckpointEvery = -1
		}), "CheckpointEvery"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

// Open is the validating constructor: bad options fail it.
func TestOpenValidates(t *testing.T) {
	if _, err := Open(Options{SegmentSize: -5}); err == nil {
		t.Fatal("Open accepted a negative SegmentSize")
	}
	db, err := Open(DefaultOptions())
	if err != nil || db == nil {
		t.Fatalf("Open(DefaultOptions()) = %v, %v", db, err)
	}
}

// New cannot report store errors, so durable options must panic rather
// than silently building a database that never persists.
func TestNewPanicsOnDurableOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with Durability.Store did not panic")
		}
	}()
	o := DefaultOptions()
	o.Durability.Store = nullStore{}
	New(o)
}
