package repro.perfbench

import java.nio.file.{Files, Paths}

/** Time for the end-to-end metrics: wall time scaled by the share of the
  * CPU time the machine wanted that the hypervisor granted.
  *
  * On a virtual machine the host can withhold CPU from a guest CPU that
  * wants to run; Linux counts that as "steal" in the first line of
  * `/proc/stat`. An idle guest CPU accrues no steal, so over an interval
  * the guest's CPUs wanted `busy + steal` CPU seconds and were granted
  * `busy`. Whether the program is bound by one critical thread or by all
  * its threads, each runnable thread then advanced at that granted share of
  * full speed, so `wall * busy / (busy + steal)` is the wall time the
  * interval would have taken on an unshared machine. The share needs no CPU
  * count and no fitted constant. Where `/proc/stat` is missing the time is
  * plain wall time. Each pass record keeps the plain wall time and the
  * steal beside the scaled time.
  */
object Clock {
  private val TicksPerSecond = 100.0 // USER_HZ, the unit of /proc/stat
  private val Stat = Paths.get("/proc/stat")

  /** A reading: wall seconds, and CPU seconds busy and stolen since boot,
    * summed over the machine's CPUs.
    */
  final case class Reading(wallS: Double, busyS: Double, stealS: Double)

  def now(): Reading = {
    val wall = System.nanoTime() / 1e9
    val (busy, steal) =
      try {
        val r = Files.newBufferedReader(Stat)
        // cpu user nice system idle iowait irq softirq steal ...
        val f = try r.readLine().trim.split("\\s+").drop(1).map(_.toDouble / TicksPerSecond) finally r.close()
        (f(0) + f(1) + f(2) + f(5) + f(6), f.lift(7).getOrElse(0.0))
      } catch { case _: java.io.IOException | _: NumberFormatException | _: IndexOutOfBoundsException => (0.0, 0.0) }
    Reading(wall, busy, steal)
  }

  /** Seconds since `r0`, scaled by the granted share of CPU time. */
  def since(r0: Reading): Double = {
    val r = now()
    val wall = r.wallS - r0.wallS
    val busy = r.busyS - r0.busyS
    val steal = r.stealS - r0.stealS
    if (busy + steal > 0) wall * busy / (busy + steal) else wall
  }

  /** Plain wall seconds since `r0`. */
  def wallSince(r0: Reading): Double = now().wallS - r0.wallS

  /** CPU seconds stolen since `r0`. */
  def stealSince(r0: Reading): Double = now().stealS - r0.stealS
}
