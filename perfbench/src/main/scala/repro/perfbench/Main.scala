package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable.ArrayBuffer
import scala.util.Try

/** Entry point: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * With `--trace 0` it runs the workload's closed loop of identical ops and
  * prints the end-to-end metrics; with `--trace 1` it runs the per-layer
  * probes of [[Layers]] and prints the per-layer metrics. Either way the last
  * line of standard output is one JSON object:
  * `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = Opts.parse(args)
    val outcome =
      if (opts.trace) Layers.run(opts)
      else Runner.run(Workloads(opts.workload, new Inputs(opts.seed)), opts.seconds)
    println(outcome.json)
    System.out.flush()
    // Spark and the JIT leave non-daemon threads behind.
    sys.exit(0)
  }
}

final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, workDir: Path)

object Opts {
  /** Every option is required: `run.py` passes them all, and it alone holds
    * the defaults.
    */
  def parse(args: Array[String]): Opts = {
    require(args.length % 2 == 0, s"expected --key value pairs, got ${args.mkString(" ")}")
    val kv = args.grouped(2).map { case Array(k, v) =>
      require(k.startsWith("--"), s"bad option $k")
      k.drop(2) -> v
    }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "work-dir")
    require(kv.keySet == known, s"expected options ${known.mkString(", ")}; missing ${known -- kv.keySet}, unknown ${kv.keySet -- known}")
    val workload = kv("workload")
    require(Workloads.names.contains(workload), s"unknown workload $workload; one of ${Workloads.names.mkString(", ")}")
    val seconds = kv("seconds").toInt
    require(seconds >= 1, "--seconds must be at least 1")
    val trace = kv("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val dir = Paths.get(kv("work-dir")).toAbsolutePath
    Files.createDirectories(dir)
    Opts(workload, kv("seed").toLong, seconds, trace, dir)
  }
}

final case class Metric(name: String, value: Double, unit: String)

final case class Outcome(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]) {
  def json: String = {
    val ms = metrics.map(m => s"""${Json.str(m.name)}: {"value": ${Json.num(m.value)}, "unit": ${Json.str(m.unit)}}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

object Json {
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"metric value $x is not a number")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolation quantile (the same rule as numpy's default). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def ms(t0: Long, t1: Long): Double = (t1 - t0) / 1e6

  def timeMs[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, ms(t0, System.nanoTime()))
  }

  /** Live heap in MB: heap in use after forced full collections. Spark frees
    * blocks and shuffle state asynchronously once their owners are collected,
    * so collect until the figure holds still.
    */
  def liveHeapMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    def collect(): Double = { System.gc(); Thread.sleep(200); mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0) }
    var prev = collect()
    var cur = collect()
    var rounds = 2
    while (math.abs(cur - prev) > 0.001 * prev && rounds < 20) { prev = cur; cur = collect(); rounds += 1 }
    cur
  }

  /** Bytes the calling thread has allocated so far (HotSpot extension). */
  def allocatedBytes(): Long =
    ManagementFactory.getThreadMXBean match {
      case t: com.sun.management.ThreadMXBean => t.getThreadAllocatedBytes(Thread.currentThread().getId)
      case _ => throw new IllegalStateException("thread allocation counting needs a HotSpot JVM")
    }
}

/** One end-to-end workload: a closed loop of identical ops from one thread. */
trait Workload[Out] {
  def name: String

  /** Builds everything the ops read from the seed.
    *
    * @return the seconds the program spent on it (`setup_s`); the
    *         benchmark's own relabelling of the inputs is not counted
    */
  def setUp(): Double

  /** Reference values for [[check]], computed apart from the program; untimed. */
  def prepareChecks(): Unit

  /** Untimed ops that let the JIT settle before measuring. */
  def warmUp(): Unit

  def op(): Out

  /** Problems in one op's outputs; empty when they are correct. */
  def check(out: Out): Seq[String]

  /** (objects whose truth equals the mapped gold, objects inferred), pooled
    * over every object and algorithm of the op.
    */
  def hits(out: Out): (Long, Long)
}

object Runner {

  /** Set-ups per run; `setup_s` is their median. The first ~25 run while the
    * JIT still compiles generation and compilation (0.3–0.4 s cold, ~35 ms
    * warm), so the median of 100 is a warm set-up's time.
    */
  val SetUps = 100

  def run[Out](w: Workload[Out], seconds: Int): Outcome = {
    val setups = (1 to SetUps).map(_ => w.setUp())
    w.prepareChecks()
    w.warmUp()

    val times = ArrayBuffer.empty[Double]
    var failed = 0
    var last: Option[Out] = None
    val deadline = System.nanoTime() + seconds * 1000000000L
    while (times.isEmpty || System.nanoTime() < deadline) {
      val (out, t) = Stats.timeMs(Try(w.op()))
      times += t
      val problems = out.fold(e => Seq(s"op threw $e"), w.check)
      if (problems.isEmpty) last = out.toOption
      else {
        failed += 1
        problems.take(5).foreach(p => System.err.println(s"[perfbench] ${w.name}: $p"))
      }
    }
    val (hit, total) = last.map(w.hits).getOrElse((0L, 1L))
    val heap = Stats.liveHeapMb()
    java.lang.ref.Reference.reachabilityFence(last)
    System.err.println(f"[perfbench] ${w.name}: set-up s ${setups.map(t => f"$t%.4f").mkString(" ")}")
    System.err.println(f"[perfbench] ${w.name}: ${times.size} ops, op_ms ${times.map(t => f"$t%.1f").mkString(" ")}")
    Outcome(
      correct = failed == 0,
      attempted = times.size,
      failed = failed,
      Seq(
        Metric("setup_s", Stats.median(setups), "s"),
        Metric("op_ms", Stats.median(times.toSeq), "ms"),
        Metric("accuracy", hit.toDouble / total, "fraction"),
        Metric("heap_live_mb", heap, "MB"),
      ),
    )
  }
}
