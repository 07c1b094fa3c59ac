//! Shared terminal plumbing: TTY-aware frame repainting, width
//! clamping, sparklines, raw-mode key input, and the alternate screen.
//!
//! This is the single implementation behind both the `flagsim sweep
//! --dashboard` stderr panel (the live fleet panel of [`crate::live`])
//! and the `flagsim watch` TUI — extracted so the two cannot diverge.
//! Everything here is side-effect-free except the functions that take
//! an explicit writer, so headless tests drive the exact bytes a
//! terminal would receive.

use std::io::{Read as _, Write};

/// Sparkline glyphs, lowest to highest.
pub const SPARKS: [char; 8] = [
    '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
    '\u{2588}',
];

/// Detected terminal width: `COLUMNS` when set and sane, else 80.
/// (The CLI is offline and dependency-free, so no ioctl probing; the
/// shell exports `COLUMNS` in the interactive case that matters.)
pub fn detect_width() -> usize {
    std::env::var("COLUMNS")
        .ok()
        .and_then(|c| c.trim().parse::<usize>().ok())
        .filter(|w| (20..=1000).contains(w))
        .unwrap_or(80)
}

/// Truncate one line to `width` characters, marking the cut with an
/// ellipsis, so an in-place redraw never wraps (a wrapped line breaks
/// the cursor-up arithmetic).
pub fn clamp_line(line: &str, width: usize) -> String {
    if line.chars().count() > width {
        let mut out: String = line.chars().take(width.saturating_sub(1)).collect();
        out.push('\u{2026}');
        out
    } else {
        line.to_owned()
    }
}

/// [`clamp_line`] applied to every line of a multi-line frame.
pub fn clamp_frame(frame: &str, width: usize) -> String {
    let mut out = String::with_capacity(frame.len());
    for line in frame.lines() {
        out.push_str(&clamp_line(line, width));
        out.push('\n');
    }
    out
}

/// Render `values` as a fixed-height sparkline (empty string for no
/// data). Scaling is min..max of the window, so the line shows a
/// streaming series settling as samples accumulate.
pub fn sparkline(values: &[f64]) -> String {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if values.is_empty() || !lo.is_finite() || !hi.is_finite() {
        return String::new();
    }
    let span = (hi - lo).max(f64::EPSILON);
    values
        .iter()
        .map(|&v| {
            let idx = (((v - lo) / span) * (SPARKS.len() - 1) as f64).round() as usize;
            SPARKS[idx.min(SPARKS.len() - 1)]
        })
        .collect()
}

/// An in-place repaintable panel: the cursor-up/clear-to-EOL dance the
/// sweep dashboard and the watch status line both use. The panel owns
/// no file handle — every method takes the writer — so tests capture
/// the exact escape bytes.
#[derive(Debug)]
pub struct Panel {
    interactive: bool,
    width: usize,
    drawn_lines: usize,
    last_frame: String,
}

impl Panel {
    /// A panel that repaints in place when `interactive`, and is inert
    /// otherwise (callers print their own plain fallback lines).
    pub fn new(interactive: bool, width: usize) -> Panel {
        Panel {
            interactive,
            width: width.max(20),
            drawn_lines: 0,
            last_frame: String::new(),
        }
    }

    /// Whether draws repaint in place.
    pub fn is_interactive(&self) -> bool {
        self.interactive
    }

    /// The clamping width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether a frame is currently on screen.
    pub fn is_open(&self) -> bool {
        self.drawn_lines > 0
    }

    /// Repaint `frame` over the previous one (interactive only; a
    /// no-op otherwise). Every row is clamped to the panel width and
    /// cleared to end-of-line so shrinking text never leaves stale
    /// characters behind.
    pub fn draw(&mut self, frame: &str, out: &mut dyn Write) {
        if !self.interactive {
            return;
        }
        let frame = clamp_frame(frame, self.width);
        let up = self.drawn_lines;
        self.drawn_lines = frame.lines().count();
        self.last_frame = frame.clone();
        if up > 0 {
            let _ = write!(out, "\x1b[{up}A\r");
        }
        let _ = write!(out, "{}", frame.replace('\n', "\x1b[K\n"));
        let _ = out.flush();
    }

    /// Print a line *above* the live panel and repaint it: the line
    /// scrolls away like normal output while the panel stays put at
    /// the bottom. Non-interactive (or before the first frame) this is
    /// a plain line. This is the panel-aware writer that failure
    /// reports and structured logs route through, so interleaved
    /// output never shears the frame.
    pub fn println_above(&mut self, line: &str, out: &mut dyn Write) {
        if self.interactive && self.drawn_lines > 0 {
            let up = self.drawn_lines;
            let _ = write!(out, "\x1b[{up}A\r\x1b[K{line}\n");
            let _ = write!(out, "{}", self.last_frame.replace('\n', "\x1b[K\n"));
            let _ = out.flush();
        } else {
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
    }

    /// Close the panel: leave the last frame on screen and move to a
    /// fresh line. Later [`Panel::println_above`] calls fall back to
    /// plain lines instead of repainting a stale frame.
    pub fn finish(&mut self, out: &mut dyn Write) {
        if self.interactive && self.drawn_lines > 0 {
            let _ = writeln!(out);
            let _ = out.flush();
        }
        self.drawn_lines = 0;
        self.last_frame.clear();
    }
}

/// Switch to the terminal's alternate screen, clear it, and hide the
/// cursor (the full-screen TUI entry sequence).
pub fn enter_alt_screen(out: &mut dyn Write) {
    let _ = write!(out, "\x1b[?1049h\x1b[2J\x1b[H\x1b[?25l");
    let _ = out.flush();
}

/// Leave the alternate screen and restore the cursor.
pub fn leave_alt_screen(out: &mut dyn Write) {
    let _ = write!(out, "\x1b[?25h\x1b[?1049l");
    let _ = out.flush();
}

/// Move the cursor home without clearing: the full-screen repaint
/// overdraws every cell and clears to end-of-line per row, so not
/// clearing avoids a visible flicker.
pub fn cursor_home(out: &mut dyn Write) {
    let _ = write!(out, "\x1b[H");
}

/// A raw-mode guard for the controlling terminal, via `stty` (the
/// container is offline and libc-free, so no termios binding; `stty`
/// is POSIX and present wherever a TTY is). Construction saves the
/// current settings and switches to raw/no-echo; drop restores them.
#[derive(Debug)]
pub struct RawMode {
    saved: String,
}

impl RawMode {
    /// Enable raw mode on `/dev/tty`. Fails (cleanly) when there is no
    /// controlling terminal or no `stty` — callers degrade to the
    /// non-interactive path.
    pub fn enable() -> Result<RawMode, String> {
        let saved = stty(&["-g"])?;
        stty(&["raw", "-echo"])?;
        Ok(RawMode {
            saved: saved.trim().to_owned(),
        })
    }
}

impl Drop for RawMode {
    fn drop(&mut self) {
        let _ = stty(&[&self.saved]);
    }
}

/// Run `stty` against the controlling terminal, capturing stdout.
fn stty(args: &[&str]) -> Result<String, String> {
    let tty = std::fs::File::open("/dev/tty").map_err(|e| format!("no /dev/tty: {e}"))?;
    let out = std::process::Command::new("stty")
        .args(args)
        .stdin(tty)
        .output()
        .map_err(|e| format!("cannot run stty: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "stty {:?} failed: {}",
            args,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("stty output not UTF-8: {e}"))
}

/// Spawn a thread that forwards raw stdin bytes over a channel — the
/// nonblocking key source for the interactive loop. The thread exits
/// when stdin closes or the receiver is dropped.
pub fn spawn_stdin_reader() -> std::sync::mpsc::Receiver<u8> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut stdin = std::io::stdin();
        let mut buf = [0u8; 64];
        loop {
            match stdin.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    for &b in &buf[..n] {
                        if tx.send(b).is_err() {
                            return;
                        }
                    }
                }
            }
        }
    });
    rx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamped_lines_fit_and_mark_truncation() {
        let long = format!("short\n{}\n", "x".repeat(300));
        let clamped = clamp_frame(&long, 40);
        for line in clamped.lines() {
            assert!(line.chars().count() <= 40, "line too wide: {line:?}");
        }
        assert!(clamped.contains("short\n"));
        assert!(clamped.contains('\u{2026}'), "truncation marker missing");
    }

    #[test]
    fn sparkline_scales_and_handles_empties() {
        let s = sparkline(&[1.0, 2.0, 3.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 3);
        assert_eq!(chars[0], SPARKS[0]);
        assert_eq!(chars[2], SPARKS[7]);
        assert_eq!(sparkline(&[]), "");
        let flat = sparkline(&[5.0, 5.0]);
        assert!(flat.chars().all(|c| c == SPARKS[0]), "{flat}");
    }

    #[test]
    fn detect_width_falls_back_sanely() {
        let w = detect_width();
        assert!((20..=1000).contains(&w), "width {w}");
    }

    #[test]
    fn interactive_panel_repaints_with_cursor_up() {
        let mut panel = Panel::new(true, 80);
        let mut out: Vec<u8> = Vec::new();
        panel.draw("a\nb\n", &mut out);
        panel.draw("c\nd\n", &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\x1b[2A"), "second draw moves up 2: {text:?}");
        assert!(text.contains("\x1b[K"), "rows clear to EOL: {text:?}");
    }

    #[test]
    fn println_above_scrolls_line_out_and_repaints() {
        let mut panel = Panel::new(true, 80);
        let mut out: Vec<u8> = Vec::new();
        panel.draw("panel\n", &mut out);
        out.clear();
        panel.println_above("scrolled", &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("scrolled"));
        assert!(text.contains("panel"), "frame repainted after the line: {text:?}");
        let up_then_line = text.find("\x1b[1A").unwrap() < text.find("scrolled").unwrap();
        assert!(up_then_line, "cursor-up precedes the scrolled line: {text:?}");
    }

    #[test]
    fn non_interactive_panel_is_inert_but_prints_plain_lines() {
        let mut panel = Panel::new(false, 80);
        let mut out: Vec<u8> = Vec::new();
        panel.draw("panel\n", &mut out);
        assert!(out.is_empty(), "no escapes to a non-TTY");
        panel.println_above("plain", &mut out);
        assert_eq!(String::from_utf8(out).unwrap(), "plain\n");
    }

    #[test]
    fn finish_closes_the_panel() {
        let mut panel = Panel::new(true, 80);
        let mut out: Vec<u8> = Vec::new();
        panel.draw("x\n", &mut out);
        assert!(panel.is_open());
        panel.finish(&mut out);
        assert!(!panel.is_open());
        out.clear();
        panel.println_above("after", &mut out);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "after\n",
            "closed panel falls back to plain lines"
        );
    }
}
