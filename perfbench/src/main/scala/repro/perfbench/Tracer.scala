package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.collection.mutable.ArrayBuffer

/** In-memory spans around the benchmark's calls into the program.
  *
  * A span has a name, a start and an end (ns since the tracer started) and the
  * span that was open when it began. Spans are kept in memory and written as
  * one JSON file at the end of the run.
  */
final class Tracer {
  import Tracer.Span

  private val origin = System.nanoTime()
  private val done = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[A](name: String)(f: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime() - origin
    try f
    finally {
      done += Span(id, parent, name, t0, System.nanoTime() - origin)
      open = open.tail
    }
  }

  /** `n` spans of the same call; returns the last result. */
  def repeat[A](n: Int, name: String)(f: => A): A = {
    require(n >= 1)
    var r = span(name)(f)
    for (_ <- 2 to n) r = span(name)(f)
    r
  }

  def spans(name: String): Seq[Span] = done.filter(_.name == name).toSeq
  def ms(name: String): Seq[Double] = spans(name).map(_.ms)
  def medianMs(name: String): Double = Stats.median(ms(name))

  /** Writes `{"workload", "seed", "result", "spans"}`, where `result` is the
    * run's printed result line.
    */
  def write(path: Path, workload: String, seed: Long, outcome: Outcome): Unit = {
    val b = new StringBuilder
    b ++= s"""{"workload": ${Json.str(workload)}, "seed": $seed,\n "result": ${outcome.json},\n "spans": ["""
    b ++= done.sortBy(_.id).map(s =>
      s"""\n  {"id": ${s.id}, "parent": ${s.parent}, "name": ${Json.str(s.name)}, "start_ns": ${s.start}, "end_ns": ${s.end}}""").mkString(",")
    b ++= "]}\n"
    Files.createDirectories(path.getParent)
    Files.write(path, b.toString.getBytes(StandardCharsets.UTF_8))
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, name: String, start: Long, end: Long) {
    def ms: Double = (end - start) / 1e6
  }
}
