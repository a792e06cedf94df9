package repro.perfbench

import java.nio.file.{Files, Path}
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** The benchmark's Spark settings, in one place. */
object SparkBench {

  /** A local session with at most `nproc` task threads. The UI is off and
    * scratch space stays inside the benchmark's work directory; everything
    * else is Spark's default, as under the jobs' `JobSession`.
    */
  def session(workDir: Path): SparkSession = {
    val local = Files.createDirectories(workDir.resolve("spark-local"))
    val s = SparkSession.builder()
      .master("local[*]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", local.toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

/** Counts jobs, tasks and shuffle bytes written, as the scheduler reports them. */
final class SparkCounters extends SparkListener {
  val jobsStarted = new AtomicLong
  val jobsEnded = new AtomicLong
  val tasksStarted = new AtomicLong
  val tasksEnded = new AtomicLong
  val shuffleBytes = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobsStarted.incrementAndGet()
  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobsEnded.incrementAndGet()
  override def onTaskStart(e: SparkListenerTaskStart): Unit = tasksStarted.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    if (e.taskMetrics != null) shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
    tasksEnded.incrementAndGet()
  }

  /** The listener bus is asynchronous: wait until every started job and task
    * has been reported ended, and the counts have held still for a moment.
    */
  def settle(): Unit = {
    def snapshot = (jobsStarted.get, jobsEnded.get, tasksStarted.get, tasksEnded.get)
    var prev = snapshot
    var stable = 0
    val deadline = System.nanoTime() + 10000000000L
    while (stable < 3 && System.nanoTime() < deadline) {
      Thread.sleep(100)
      val cur = snapshot
      if (cur == prev && cur._1 == cur._2 && cur._3 == cur._4) stable += 1 else stable = 0
      prev = cur
    }
  }

  def reset(): Unit = Seq(jobsStarted, jobsEnded, tasksStarted, tasksEnded, shuffleBytes).foreach(_.set(0))
}
