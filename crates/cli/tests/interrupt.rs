//! Ctrl-C during `leapme train`: the run checkpoints, exits with the
//! cancellation code, and a `--resume` rerun completes.
//!
//! This test raises the process-wide interrupt flag, which every command
//! running in the same process polls. It lives alone in this binary so
//! no concurrently running test gets cancelled by it.

use leapme::core::pipeline::LeapmeModel;
use leapme_cli::{interrupted_flag, run, CliError};
use std::sync::atomic::Ordering;

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn interrupted_training_checkpoints_and_exits_cancelled() {
    let dir = std::env::temp_dir().join("leapme_cli_interrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let ds = dir.join("ds.json");
    let emb = dir.join("emb.txt");
    let model_path = dir.join("interrupted.lmp");
    let ckpt_path = dir.join("interrupted.ckpt");
    let _ = std::fs::remove_file(&ckpt_path);
    let _ = std::fs::remove_file(&model_path);
    run(&args(&[
        "generate",
        "--domain",
        "tvs",
        "--seed",
        "2",
        "--out",
        ds.to_str().unwrap(),
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
        emb.to_str().unwrap(),
    ]))
    .unwrap();
    let train = |resume: bool| {
        let mut argv = args(&[
            "train",
            "--dataset",
            ds.to_str().unwrap(),
            "--embeddings",
            emb.to_str().unwrap(),
            "--save",
            model_path.to_str().unwrap(),
            "--checkpoint",
            ckpt_path.to_str().unwrap(),
        ]);
        if resume {
            argv.push("--resume".into());
        }
        run(&argv)
    };

    // Simulate Ctrl-C before the run starts: the very first poll
    // fires, and the checkpoint (empty training progress) is saved.
    interrupted_flag().store(true, Ordering::SeqCst);
    let err = train(false).unwrap_err();
    interrupted_flag().store(false, Ordering::SeqCst);
    assert!(matches!(err, CliError::Cancelled(_)), "{err}");
    assert_eq!(err.exit_code(), 3);
    assert!(!model_path.exists(), "no model on a cancelled run");

    // Rerunning with --resume (checkpoint may or may not exist yet,
    // depending on where the cancel landed) completes and saves.
    let msg = train(true).unwrap();
    assert!(msg.contains("wrote"), "{msg}");
    assert!(!ckpt_path.exists(), "checkpoint removed after completion");
    LeapmeModel::load(&model_path).unwrap();
    std::fs::remove_file(model_path).ok();
}
