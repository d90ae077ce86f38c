//! End-to-end runs of the `explain` bin: both checks hold, both
//! artifacts are well-formed JSON, and the one Perfetto timeline keeps
//! switch and controller-replica processes apart.
//!
//! Seeds: 801 is the default (two switch crashes, sub-multiset
//! reconciliation); 807's fault schedule crashes no switch, so its
//! reconciliation is one-for-one; 2 restarts a switch that then issues
//! new writes, which once reused pre-crash trace ids.

use std::path::PathBuf;
use std::process::Command;
use swishmem_bench::json::Json;

/// A small JSON reader for the artifacts: values only, no error
/// recovery (a malformed document fails the test).
struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn parse(text: &str) -> Json {
        let mut r = Reader {
            s: text.as_bytes(),
            i: 0,
        };
        let v = r.value();
        r.ws();
        assert_eq!(r.i, r.s.len(), "trailing bytes after the JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
    }

    fn literal(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                if self.peek() != b'}' {
                    loop {
                        let k = self.string();
                        self.eat(b':');
                        fields.push((k, self.value()));
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() != b']' {
                    loop {
                        items.push(self.value());
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let num = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(num.parse().unwrap_or_else(|_| panic!("bad number {num:?}")))
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).expect("UTF-8 string"),
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        // The writer escapes only control characters.
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            out.push(u8::from_str_radix(hex, 16).expect("control character"));
                            self.i += 4;
                        }
                        other => out.push(other),
                    }
                }
                _ => out.push(c),
            }
        }
    }
}

fn field<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    match v {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Run `explain --seed <seed>` in a fresh directory and check both
/// verdicts and both artifacts; the seed's fault schedule must crash
/// `switch_crashes` switches.
fn check_seed(seed: u64, switch_crashes: f64) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("explain_{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args(["--seed", &seed.to_string(), "--out-dir", "out"])
        .current_dir(&dir)
        .output()
        .expect("spawn explain");
    assert_eq!(
        out.status.code(),
        Some(0),
        "explain --seed {seed}:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let read = |name: &str| {
        let path = dir
            .join("out")
            .join(format!("explain_seed{seed}.{name}.json"));
        Reader::parse(&std::fs::read_to_string(&path).unwrap())
    };
    let summary = read("explain");
    assert!(
        matches!(field(&summary, "switch_crash_episodes"), Some(Json::Num(n)) if *n == switch_crashes),
        "seed {seed}: expected {switch_crashes} switch crash episodes"
    );
    for verdict in ["consistent", "accuracy_ok"] {
        assert!(
            matches!(field(&summary, verdict), Some(Json::Bool(true))),
            "seed {seed}: {verdict} is not true"
        );
    }

    // Process names by pid: no pid may name both a switch and a replica.
    let timeline = read("perfetto");
    let Some(Json::Arr(events)) = field(&timeline, "traceEvents") else {
        panic!("seed {seed}: no traceEvents array");
    };
    let mut switches = Vec::new();
    let mut replicas = Vec::new();
    for e in events {
        if !matches!(field(e, "name"), Some(Json::Str(n)) if n == "process_name") {
            continue;
        }
        let Some(Json::Num(pid)) = field(e, "pid") else {
            panic!("seed {seed}: process_name without a pid");
        };
        let Some(Json::Str(name)) = field(e, "args").and_then(|a| field(a, "name")) else {
            panic!("seed {seed}: process_name without a name");
        };
        if name.starts_with("switch ") {
            switches.push(*pid as u64);
        } else if name.starts_with("replica ") {
            replicas.push(*pid as u64);
        }
    }
    assert!(!switches.is_empty(), "seed {seed}: no switch process");
    assert!(!replicas.is_empty(), "seed {seed}: no replica process");
    for pid in &switches {
        assert!(!replicas.contains(pid), "seed {seed}: pid {pid} is shared");
    }
}

#[test]
fn default_seed_with_switch_crashes() {
    check_seed(801, 2.0);
}

#[test]
fn crash_free_schedule_reconciles_one_for_one() {
    check_seed(807, 0.0);
}

#[test]
fn restarted_switch_issues_fresh_trace_ids() {
    check_seed(2, 1.0);
}
