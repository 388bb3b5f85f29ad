//! SIGTERM drains a running `leapme serve`: the signal handler raises
//! the interrupt flag, the server's `serve-signal` thread sees it and
//! wakes the blocked accept, and the daemon exits 0 with a clean drain.
//!
//! The daemon runs as a real subprocess (the built `leapme` binary), so
//! the signal path is exactly the one an operator's `kill` takes.

#![cfg(unix)]

use leapme::data::model::Dataset;
use leapme::prelude::PropertyPair;
use leapme_cli::run;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn sigterm_drains_serve_cleanly() {
    let dir = std::env::temp_dir().join(format!("leapme_cli_serve_signal_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ds = dir.join("ds.json");
    let emb = dir.join("emb.txt");
    let model = dir.join("model.lmp");
    let path = |p: &std::path::Path| p.to_str().unwrap().to_string();

    // A tiny model: small dataset, 8-dim embeddings, default training.
    run(&args(&[
        "generate",
        "--domain",
        "tvs",
        "--seed",
        "3",
        "--out",
        &path(&ds),
    ]))
    .unwrap();
    run(&args(&[
        "embed",
        "--domains",
        "tvs",
        "--dim",
        "8",
        "--epochs",
        "2",
        "--out",
        &path(&emb),
    ]))
    .unwrap();
    run(&args(&[
        "train",
        "--dataset",
        &path(&ds),
        "--embeddings",
        &path(&emb),
        "--save",
        &path(&model),
    ]))
    .unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_leapme"))
        .args([
            "serve",
            "--model",
            &path(&model),
            "--dataset",
            &path(&ds),
            "--embeddings",
            &path(&emb),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());

    // The readiness line carries the OS-assigned port.
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            stdout.read_line(&mut line).unwrap() > 0,
            "serve exited before listening"
        );
        if let Some(rest) = line.strip_prefix("leapme serve listening on http://") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };

    // One real /score answered before the signal.
    let dataset = Dataset::from_json(&std::fs::read_to_string(&ds).unwrap()).unwrap();
    let quads: Vec<(u16, String, u16, String)> = leapme::core::sampling::test_pairs(&dataset, &[])
        .into_iter()
        .take(4)
        .map(|PropertyPair(a, b)| (a.source.0, a.name, b.source.0, b.name))
        .collect();
    let body = format!("{{\"pairs\":{}}}", serde_json::to_string(&quads).unwrap());
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "POST /score HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"scores\":["), "{response}");

    let signalled = Instant::now();
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success(), "kill -TERM failed");
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if signalled.elapsed() > Duration::from_secs(5) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve still running 5 s after SIGTERM: the accept was never woken");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert_eq!(status.code(), Some(0), "serve exited with {status}: {rest}");
    assert!(rest.contains("drained cleanly"), "{rest}");

    std::fs::remove_dir_all(&dir).ok();
}
