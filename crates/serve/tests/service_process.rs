//! Process-level integration tests for the `coca-serve` binary: socket
//! round-trips, real SIGTERM checkpoint/resume, backpressure under a tiny
//! push queue, and schema validation of the captured wire streams.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

const SERVE: &str = env!("CARGO_BIN_EXE_coca-serve");
const VALIDATE: &str = env!("CARGO_BIN_EXE_validate-serve");
const SCHEMA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../schemas/serve.schema.json");

/// A fleet small enough that 24-slot runs finish in milliseconds.
const FLEET: &[&str] = &["--groups", "2", "--servers-per-group", "5", "--rec-total", "10"];

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("coca-serve-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The addresses a `coca-serve run` child bound for `--decisions-listen`,
/// `--metrics-http` and `--listen` (all given as port 0), read from the
/// lines it logs to stderr before it blocks on the ingest connection.
/// Returns them in that order with the stderr reader, positioned after
/// the ingest line.
fn bound_addrs(child: &mut Child) -> ([String; 3], BufReader<ChildStderr>) {
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let prefixes = [
        "coca-serve: decisions on ",
        "coca-serve: metrics on http://",
        "coca-serve: ingest listening on ",
    ];
    let mut addrs: [Option<String>; 3] = Default::default();
    let mut seen = String::new();
    while addrs.iter().any(Option::is_none) {
        let mut line = String::new();
        let n = stderr.read_line(&mut line).unwrap();
        assert!(n > 0, "coca-serve exited before announcing its listeners: {seen}");
        seen.push_str(&line);
        let line = line.trim_end();
        for (slot, prefix) in addrs.iter_mut().zip(prefixes) {
            if let Some(rest) = line.strip_prefix(prefix) {
                *slot = Some(rest.trim_end_matches("/metrics").to_string());
            }
        }
    }
    (addrs.map(Option::unwrap), stderr)
}

fn connect_with_retry(addr: &str) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("connect {addr}: {e}"),
        }
    }
}

fn replay_ndjson(hours: usize) -> String {
    let out = Command::new(SERVE)
        .args(["replay", "--synthetic", &hours.to_string(), "--seed", "7", "--peak", "20"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

/// Runs `coca-serve run --mode batch` over `input` and returns its stdout.
fn batch_reference(input: &str) -> String {
    let mut child = Command::new(SERVE)
        .args(["run", "--mode", "batch"])
        .args(FLEET)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(input.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

fn decision_lines(stream: &str) -> Vec<&str> {
    stream.lines().filter(|l| l.contains("\"type\":\"decision\"")).collect()
}

fn wait_success(mut child: Child) -> String {
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "coca-serve failed: {stderr}");
    stderr
}

fn validate(stream: &str, tag: &str) {
    let dir = tmp_dir(tag);
    let path = dir.join("stream.ndjson");
    std::fs::write(&path, stream).unwrap();
    let out = Command::new(VALIDATE).arg(&path).arg(SCHEMA).output().unwrap();
    assert!(
        out.status.success(),
        "validate-serve rejected {tag}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn socket_stream_matches_batch_and_passes_schema() {
    let input = replay_ndjson(24);
    let reference = batch_reference(&input);

    let mut child = Command::new(SERVE)
        .args(["run", "--quiet"])
        .args(["--listen", "127.0.0.1:0"])
        .args(["--decisions-listen", "127.0.0.1:0"])
        .args(["--metrics-http", "127.0.0.1:0"])
        .args(FLEET)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let ([decisions_addr, metrics_addr, ingest_addr], mut stderr) = bound_addrs(&mut child);

    // Subscribe before any slot flows so no decision is missed: a client
    // that has read the hello banner is subscribed.
    let mut subscriber = BufReader::new(connect_with_retry(&decisions_addr));
    let mut banner = String::new();
    subscriber.read_line(&mut banner).unwrap();
    assert!(banner.contains("\"type\":\"hello\""), "subscriber banner missing: {banner:?}");
    let reader = std::thread::spawn(move || {
        let mut lines = Vec::new();
        for line in subscriber.lines() {
            match line {
                Ok(l) => lines.push(l),
                Err(_) => break,
            }
        }
        lines
    });

    let mut ingest = connect_with_retry(&ingest_addr);
    let (slots, end) = input.split_at(input.rfind("{\"type\":\"end\"").unwrap());
    ingest.write_all(slots.as_bytes()).unwrap();
    ingest.flush().unwrap();

    // With all slots in flight, the metrics endpoint must answer while the
    // service is resident.
    let scrape = Command::new(SERVE).args(["scrape", &metrics_addr]).output().unwrap();
    assert!(scrape.status.success(), "{}", String::from_utf8_lossy(&scrape.stderr));
    assert!(!scrape.stdout.is_empty(), "metrics scrape returned an empty body");

    ingest.write_all(end.as_bytes()).unwrap();
    ingest.flush().unwrap();
    drop(ingest);
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).unwrap();
    assert!(child.wait().unwrap().success(), "coca-serve failed: {rest}");

    let published = reader.join().unwrap();
    let stream_decisions: Vec<&str> =
        published.iter().map(String::as_str).filter(|l| l.contains("\"type\":\"decision\"")).collect();
    assert_eq!(stream_decisions.len(), 24);
    assert_eq!(stream_decisions, decision_lines(&reference), "stream must equal batch bit-exactly");
    assert!(published.last().is_some_and(|l| l.contains("\"slots\":24")));

    validate(&format!("{banner}{}", published.join("\n")), "decisions");
    validate(&input, "replay");
}

#[test]
fn sigterm_checkpoints_and_resume_concatenates_to_reference() {
    let input = replay_ndjson(24);
    let reference = batch_reference(&input);
    let ref_decisions = decision_lines(&reference);
    let slot_lines: Vec<&str> =
        input.lines().filter(|l| l.contains("\"type\":\"slot\"")).collect();

    let dir = tmp_dir("sigterm");
    let ckpt = dir.join("serve.ckpt.json");

    // First half: feed 12 slots, wait for their decisions, then deliver a
    // real SIGTERM while the engine is parked on the quiet stream.
    let mut child = Command::new(SERVE)
        .args(["run", "--checkpoint", ckpt.to_str().unwrap()])
        .args(FLEET)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    for line in &slot_lines[..12] {
        writeln!(stdin, "{line}").unwrap();
    }
    stdin.flush().unwrap();

    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first_half = Vec::new();
    for _ in 0..12 {
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        first_half.push(line.trim_end().to_string());
    }

    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    let stderr = wait_success(child);
    assert!(stderr.contains("Stopped"), "expected a stop-flag exit, got: {stderr}");
    assert!(ckpt.exists(), "SIGTERM must leave a checkpoint behind");
    drop(stdin);

    // Second half: resume from the checkpoint and feed the rest.
    let mut child = Command::new(SERVE)
        .args(["run", "--resume", "--checkpoint", ckpt.to_str().unwrap()])
        .args(FLEET)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    for line in &slot_lines[12..] {
        writeln!(stdin, "{line}").unwrap();
    }
    writeln!(stdin, "{{\"type\":\"end\"}}").unwrap();
    drop(stdin);
    let mut second = String::new();
    child.stdout.take().unwrap().read_to_string(&mut second).unwrap();
    wait_success(child);

    let mut combined: Vec<&str> =
        first_half.iter().map(String::as_str).filter(|l| l.contains("\"type\":\"decision\"")).collect();
    combined.extend(decision_lines(&second));
    assert_eq!(combined, ref_decisions, "interrupt + resume must equal the uninterrupted run");
    assert!(second.contains("\"slots\":24"), "resumed run must account for all 24 slots");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tiny_queue_backpressure_drops_and_reorders_nothing() {
    let input = replay_ndjson(48);
    let reference = batch_reference(&input);

    let mut child = Command::new(SERVE)
        .args(["run", "--queue-capacity", "2"])
        .args(FLEET)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Push the whole stream at once: the producer outruns the engine and
    // must block on the 2-slot queue rather than drop or reorder.
    child.stdin.take().unwrap().write_all(input.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stream = String::from_utf8(out.stdout).unwrap();

    assert_eq!(decision_lines(&stream), decision_lines(&reference));
    assert!(stream.contains("\"slots\":48"));
}

#[test]
fn committed_trace_fixtures_replay_through_the_service() {
    // The Azure- and Google-shaped CSV fixtures committed under
    // crates/traces/fixtures drive the whole pipeline: adapter → replay
    // (with pacing) → batch service run → schema-valid wire streams.
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../traces/fixtures");
    for (flag, file) in [("--azure", "azure_vm_cpu.csv"), ("--google", "google_task_usage.csv")] {
        let path = format!("{fixtures}/{file}");
        let out = Command::new(SERVE)
            .args(["replay", flag, &path, "--peak", "20", "--rate", "500"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{flag}: {}", String::from_utf8_lossy(&out.stderr));
        let input = String::from_utf8(out.stdout).unwrap();
        validate(&input, &format!("{flag} replay"));

        let slots: Vec<&str> =
            input.lines().filter(|l| l.contains("\"type\":\"slot\"")).collect();
        assert!(slots.len() >= 8, "{flag}: fixture spans at least 8 hourly slots");
        assert!(slots[0].contains("\"t\":0"), "{flag}: replay starts at slot 0");

        let stream = batch_reference(&input);
        validate(&stream, &format!("{flag} decisions"));
        assert_eq!(
            decision_lines(&stream).len(),
            slots.len(),
            "{flag}: one decision per fixture slot"
        );
        assert!(stream.contains(&format!("\"slots\":{}", slots.len())));
    }
}

#[test]
fn invalid_config_exits_non_zero_with_the_validation_message() {
    for mode in ["serve", "batch"] {
        let out = Command::new(SERVE)
            .args(["run", "--mode", mode, "--horizon", "200"])
            .args(FLEET)
            .stdin(Stdio::null())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{mode}: {stderr}");
        assert!(
            stderr.contains("horizon 200 must be a multiple of the frame length 24"),
            "{mode}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{mode}: {stderr}");
        assert!(out.stdout.is_empty(), "{mode}: no decision stream");
    }
}
